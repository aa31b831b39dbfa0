package parallel

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/game"
	"repro/internal/morpion"
)

// seqDigest is the FNV-1a digest of a move sequence, eight little-endian
// bytes per move.
func seqDigest(seq []game.Move) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, m := range seq {
		binary.LittleEndian.PutUint64(b[:], uint64(m))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestMorpion5DFirstMoveGolden pins one first-move job on the paper's
// variant — the job shape of the search-morpion benchmark — next to the
// 4D pin of goldenNil: score, rollouts, metered work and the sequence
// digest. Every rollout draws its moves by index into the legal-move list,
// so a change of list order anywhere moves these numbers.
func TestMorpion5DFirstMoveGolden(t *testing.T) {
	cfg := Config{Level: 2, Root: morpion.New(morpion.Var5D), Seed: 7, Memorize: true, FirstMoveOnly: true}
	res, err := RunWall(4, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const (
		score     = 61
		jobs      = 16732
		workUnits = 426045
		digest    = 0xc466150015e67728
	)
	if d := seqDigest(res.Sequence); res.Score != score || res.Jobs != jobs ||
		res.WorkUnits != workUnits || d != digest {
		t.Fatalf("5D first-move job diverged from golden:\n got score=%v jobs=%d units=%d digest=%#x\nwant score=%v jobs=%d units=%d digest=%#x",
			res.Score, res.Jobs, res.WorkUnits, d, float64(score), jobs, workUnits, uint64(digest))
	}
}
