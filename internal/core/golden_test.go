package core

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/game"
	"repro/internal/morpion"
	"repro/internal/rng"
)

// seqDigest is the FNV-1a digest of a move sequence, eight little-endian
// bytes per move: it pins the exact moves and their order in one word.
func seqDigest(seq []game.Move) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, m := range seq {
		binary.LittleEndian.PutUint64(b[:], uint64(m))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestNestedLevel1GoldenLines5 pins a level-1 search on the lines-of-5
// variants: score, rollout count and the played sequence. The uniform
// playout picks moves by their index in the legal-move list, so these
// values move if the list order changes anywhere in a game — under the
// T rule (5T) as much as under the D rule of the paper's variant (5D).
func TestNestedLevel1GoldenLines5(t *testing.T) {
	cases := []struct {
		v        morpion.Variant
		seed     uint64
		score    float64
		playouts int64
		digest   uint64
	}{
		{morpion.Var5D, 3, 62, 534, 0xdc945b4a24ec3e64},
		{morpion.Var5T, 4, 89, 751, 0xd33d498f9bb62ef0},
	}
	for _, c := range cases {
		t.Run(c.v.Name, func(t *testing.T) {
			s := NewSearcher(rng.New(c.seed), DefaultOptions())
			res := s.Nested(morpion.New(c.v), 1)
			got := s.Stats().Playouts
			if d := seqDigest(res.Sequence); res.Score != c.score || got != c.playouts || d != c.digest {
				t.Fatalf("level-1 %s search diverged from golden:\n got score=%v playouts=%d digest=%#x\nwant score=%v playouts=%d digest=%#x",
					c.v.Name, res.Score, got, d, c.score, c.playouts, c.digest)
			}
		})
	}
}
