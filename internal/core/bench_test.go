package core

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/game"
	"repro/internal/morpion"
	"repro/internal/rng"
	"repro/internal/samegame"
	"repro/internal/sudoku"
)

// BenchmarkNestedLevel2 compares the two traversals of the argmax loop on
// Morpion 4D at level 2: the allocation-free Play/Undo fast path against
// the clone-per-candidate baseline (Options.NoUndo). The undo traversal
// must show at least 2× fewer allocations per op and lower ns/op; the
// recorded numbers live in CHANGES.md.
func BenchmarkNestedLevel2(b *testing.B) {
	run := func(b *testing.B, noUndo bool) {
		opt := DefaultOptions()
		opt.NoUndo = noUndo
		s := NewSearcher(rng.New(1), opt)
		base := morpion.New(morpion.Var4D)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Nested(base.Clone(), 2)
		}
	}
	b.Run("undo", func(b *testing.B) { run(b, false) })
	b.Run("clone", func(b *testing.B) { run(b, true) })
}

// BenchmarkNestedLevel1 is the same comparison one level down, where the
// argmax loop runs a playout per candidate instead of a nested search.
// The 5D case runs the undo traversal on the paper's variant: a level-1
// game is what every client plays under a first-move job.
func BenchmarkNestedLevel1(b *testing.B) {
	run := func(b *testing.B, v morpion.Variant, noUndo bool) {
		opt := DefaultOptions()
		opt.NoUndo = noUndo
		s := NewSearcher(rng.New(1), opt)
		base := morpion.New(v)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Nested(base.Clone(), 1)
		}
	}
	b.Run("undo", func(b *testing.B) { run(b, morpion.Var4D, false) })
	b.Run("clone", func(b *testing.B) { run(b, morpion.Var4D, true) })
	b.Run("5D", func(b *testing.B) { run(b, morpion.Var5D, false) })
}

// BenchmarkCachedNested measures what the transposition cache buys on the
// repeated-search shape it was built for (DESIGN.md §11): each iteration
// runs the same search cachedReps times — the serving pattern where many
// jobs revisit one position — with the cache off (plain Nested) and on (a
// fresh cache per iteration, NestedCached). The repetition count is fixed
// so the on-variant's hit rate is deterministic at any -benchtime,
// reported as the hit_pct metric; the wall-time win is the off/on ns_op
// ratio in BENCH_baseline.json. The off-variant stays on the plain Nested
// path, so the standing allocs/op gate also pins that an unused cache
// costs the cache-off path nothing.
func BenchmarkCachedNested(b *testing.B) {
	const cachedReps = 3
	cases := []struct {
		name  string
		fresh func() game.State
		level int
	}{
		{"sudoku", func() game.State { return sudoku.New(2) }, 2},
		{"samegame", func() game.State { return samegame.NewRandom(5, 5, 3, 3) }, 2},
		{"morpion", func() game.State { return morpion.New(morpion.Var4D) }, 1},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name+"/off", func(b *testing.B) {
			s := NewSearcher(rng.New(1), Options{Memorize: true})
			root := c.fresh()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r := 0; r < cachedReps; r++ {
					s.Nested(root.Clone(), c.level)
				}
			}
		})
		b.Run(c.name+"/on", func(b *testing.B) {
			s := NewSearcher(rng.New(1), Options{Memorize: true})
			root := c.fresh()
			scope := cache.Scope("", true, 0)
			var hits, misses int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tc := cache.New(0)
				s.SetCache(tc, scope, false)
				for r := 0; r < cachedReps; r++ {
					s.NestedCached(root.Clone(), c.level)
				}
				st := tc.Stats()
				hits += st.Hits
				misses += st.Misses
			}
			b.StopTimer()
			s.SetCache(nil, 0, false)
			if total := hits + misses; total > 0 {
				b.ReportMetric(float64(hits)/float64(total)*100, "hit_pct")
			}
		})
	}
}
