package core

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/game"
	"repro/internal/morpion"
	"repro/internal/rng"
	"repro/internal/samegame"
	"repro/internal/sudoku"
)

// scoreRoots are the positions of the Score tests: one per domain, small
// enough for a level-2 search on each traversal, cache off and on, to run
// in test time. The Morpion root is a few moves into the game.
func scoreRoots() map[string]game.State {
	mo := morpion.New(morpion.Var4D)
	for i := 0; i < 8; i++ {
		mo.Play(mo.LegalMoves(nil)[i%3])
	}
	return map[string]game.State{
		"morpion":  mo,
		"samegame": samegame.NewRandom(5, 5, 3, 3),
		"sudoku":   sudoku.New(2),
	}
}

// TestScoreMatchesNestedCached pins Searcher.Score to
// NestedCached(...).Score bit for bit on every domain, at levels 0–2, on
// both traversals, with the cache off and on (every hit recomputed). One
// Score searcher serves every run of a configuration, so its reused
// sequence buffer and scratch carry over between calls; the reference is
// a fresh searcher per run.
func TestScoreMatchesNestedCached(t *testing.T) {
	for name, root := range scoreRoots() {
		for _, noUndo := range []bool{false, true} {
			for _, cached := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/noUndo=%v/cache=%v", name, noUndo, cached), func(t *testing.T) {
					opts := Options{Memorize: true, NoUndo: noUndo}
					attach := func(s *Searcher) {
						if cached {
							s.SetCache(cache.New(1<<20), cache.Scope("", true, 0), true)
						}
					}
					s := NewSearcher(rng.New(0), opts)
					attach(s)
					for level := 0; level <= 2; level++ {
						for seed := uint64(1); seed <= 2; seed++ {
							ref := NewSearcher(rng.New(0), opts)
							attach(ref)
							ref.Reseed(seed, uint64(level))
							want := ref.NestedCached(root.Clone(), level).Score

							s.Reseed(seed, uint64(level))
							st := root.Clone()
							got := s.Score(st, level)
							if got != want {
								t.Fatalf("level %d seed %d: Score %v, NestedCached %v", level, seed, got, want)
							}
							if !st.Terminal() || st.Score() != got {
								t.Fatalf("level %d seed %d: Score left a non-terminal or mis-scored position", level, seed)
							}
						}
					}
				})
			}
		}
	}
}

// TestScoreAllocationFree pins what Score exists for: a warmed searcher
// scores a Morpion rollout at level 0 and level 1 without allocating.
func TestScoreAllocationFree(t *testing.T) {
	root := morpion.New(morpion.Var5D)
	for level := 0; level <= 1; level++ {
		s := NewSearcher(rng.New(0), Options{Memorize: true})
		var pool StatePool
		run := func() {
			st := pool.Get(root)
			s.Reseed(7, uint64(level))
			s.Score(st, level)
			pool.Put(st)
		}
		run() // warm the pool and the searcher's buffers
		if n := testing.AllocsPerRun(5, run); n != 0 {
			t.Fatalf("level %d: %v allocs per Score", level, n)
		}
	}
}
