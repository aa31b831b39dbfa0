package parallel

// Round-trip property tests for the parallel protocol's wire payloads:
// Decode(Encode(m)) == m for every registered kind, with
// testing/quick-generated field values, plus the worker handshake blob.

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/game"
	"repro/internal/mpi"
	"repro/internal/mpi/codec"
)

// payloadTrip encodes and decodes one payload value.
func payloadTrip(t *testing.T, v any) any {
	t.Helper()
	buf, err := codec.EncodePayload(nil, v)
	if err != nil {
		t.Fatalf("encode %T: %v", v, err)
	}
	out, err := codec.DecodePayload(buf)
	if err != nil {
		t.Fatalf("decode %T: %v", v, err)
	}
	return out
}

// nonneg maps arbitrary quick-generated ints onto the non-negative ranges
// the protocol uses (steps, candidate indexes, counters).
func nonneg(v int) int {
	if v < 0 {
		return -(v + 1)
	}
	return v
}

// par maps arbitrary quick-generated ints onto the branch-discriminator
// range [-1, ∞): -1 is the no-parent sentinel of step 0 and the
// synchronous schedulers, everything else a move index.
func par(v int) int {
	return nonneg(v) - 1
}

func quickParams(slot int, epoch uint64, level int, seed uint64, memorize bool, scale int64, root int) jobParams {
	if scale < 0 {
		scale = -(scale + 1)
	}
	return jobParams{
		Slot:      nonneg(slot),
		Epoch:     epoch,
		Level:     nonneg(level) % (wireMaxLevel + 1), // decoders reject levels beyond the cap
		Seed:      seed,
		Memorize:  memorize,
		JobScale:  scale,
		Root:      mpi.Rank(nonneg(root)),
		Speculate: nonneg(slot) % (wireMaxSpeculate + 1), // decoders reject widths beyond the cap
	}
}

func TestScalarPayloadRoundTrips(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	checks := map[string]any{
		"jobScore": func(seq int, score float64) bool {
			v := jobScore{Seq: nonneg(seq), Score: score}
			got := payloadTrip(t, v).(jobScore)
			return got.Seq == v.Seq && math.Float64bits(got.Score) == math.Float64bits(v.Score)
		},
		"stepScore": func(step, cand, p int, score float64) bool {
			v := stepScore{Step: nonneg(step), Cand: nonneg(cand), Par: par(p), Score: score}
			got := payloadTrip(t, v).(stepScore)
			return got.Step == v.Step && got.Cand == v.Cand && got.Par == v.Par &&
				math.Float64bits(got.Score) == math.Float64bits(v.Score)
		},
		"svcScore": func(epoch uint64, step, cand, p int, score float64, rollouts, units int64) bool {
			v := svcScore{
				Epoch: epoch, Step: nonneg(step), Cand: nonneg(cand), Par: par(p), Score: score,
				Rollouts: int64(nonneg(int(rollouts % (1 << 40)))), Units: int64(nonneg(int(units % (1 << 40)))),
			}
			got := payloadTrip(t, v).(svcScore)
			return got.Epoch == v.Epoch && got.Step == v.Step && got.Cand == v.Cand &&
				got.Par == v.Par && got.Rollouts == v.Rollouts && got.Units == v.Units &&
				math.Float64bits(got.Score) == math.Float64bits(v.Score)
		},
		"svcSpecCancel": func(slot int, epoch uint64, step, keep int) bool {
			v := svcSpecCancel{Slot: nonneg(slot), Epoch: epoch, Step: par(step), Keep: par(keep)}
			return payloadTrip(t, v).(svcSpecCancel) == v
		},
		"svcResult": func(key uint64, seq int, scores []float64, units int64) bool {
			v := svcResult{Key: key, Seq: nonneg(seq), Scores: scores, Units: int64(nonneg(int(units % (1 << 40))))}
			got := payloadTrip(t, v).(svcResult)
			if got.Key != v.Key || got.Seq != v.Seq || got.Units != v.Units || len(got.Scores) != len(v.Scores) {
				return false
			}
			for i := range v.Scores {
				if math.Float64bits(got.Scores[i]) != math.Float64bits(v.Scores[i]) {
					return false
				}
			}
			return true
		},
		"svcAbandonAck": func(epoch uint64, dropped int) bool {
			v := svcAbandonAck{Epoch: epoch, Dropped: nonneg(dropped)}
			return payloadTrip(t, v).(svcAbandonAck) == v
		},
		"svcRanksLost": func(lo, hi int) bool {
			l, h := nonneg(lo), nonneg(hi)
			if h < l {
				l, h = h, l
			}
			v := svcRanksLost{Lo: mpi.Rank(l), Hi: mpi.Rank(h)}
			return payloadTrip(t, v).(svcRanksLost) == v
		},
		"svcRegrant": func(epoch uint64, count int) bool {
			v := svcRegrant{Epoch: epoch, Count: nonneg(count)}
			return payloadTrip(t, v).(svcRegrant) == v
		},
	}
	for name, fn := range checks {
		if err := quick.Check(fn, cfg); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestStateCarryingPayloadRoundTrips(t *testing.T) {
	st := game.NewArmTree(3, 4, 9)
	st.Play(1)
	st.Play(2)

	cand := candidate{Step: 4, Cand: 2, Par: 1, State: st}
	got := payloadTrip(t, cand).(candidate)
	if got.Step != cand.Step || got.Cand != cand.Cand || got.Par != cand.Par {
		t.Fatalf("candidate coordinates: %+v", got)
	}
	if got.State.MovesPlayed() != 2 || got.State.Score() != st.Score() {
		t.Fatalf("candidate state not restored: %+v", got.State)
	}

	jb := job{Key: 0xdeadbeef, Seq: 3, State: st}
	gj := payloadTrip(t, jb).(job)
	if gj.Key != jb.Key || gj.Seq != jb.Seq || gj.State.MovesPlayed() != 2 {
		t.Fatalf("job: %+v", gj)
	}

	if err := quick.Check(func(step, candIdx, p int, slot int, epoch uint64, level int, seed uint64, mem bool, scale int64, root int) bool {
		v := svcCandidate{
			Step: nonneg(step), Cand: nonneg(candIdx), Par: par(p),
			P:     quickParams(slot, epoch, level, seed, mem, scale, root),
			State: st,
		}
		g := payloadTrip(t, v).(svcCandidate)
		return g.Step == v.Step && g.Cand == v.Cand && g.Par == v.Par && g.P == v.P && g.State.MovesPlayed() == 2
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Errorf("svcCandidate: %v", err)
	}

	if err := quick.Check(func(step, candIdx, tt, first, p int, moves []uint16, slot int, epoch uint64, level int, seed uint64, mem bool, scale int64, root int) bool {
		v := svcJob{
			Step: nonneg(step), Cand: nonneg(candIdx), T: nonneg(tt), First: nonneg(first), Par: par(p),
			P:     quickParams(slot, epoch, level, seed, mem, scale, root),
			State: st,
		}
		for _, m := range moves {
			v.Moves = append(v.Moves, game.Move(m))
		}
		g := payloadTrip(t, v).(svcJob)
		return g.Step == v.Step && g.Cand == v.Cand && g.T == v.T && g.First == v.First &&
			g.Par == v.Par && g.P == v.P && slices.Equal(g.Moves, v.Moves) && g.State.MovesPlayed() == 2
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Errorf("svcJob: %v", err)
	}
}

// TestChunkPayloadCountLimits pins the remote-controlled-count guards of
// the chunk frames: a move or score count larger than the bytes left in
// the frame is rejected before anything is allocated for it, and a
// truncated chunk never decodes.
func TestChunkPayloadCountLimits(t *testing.T) {
	st := game.NewArmTree(3, 4, 9)
	jb, err := codec.EncodePayload(nil, svcJob{First: 1, Par: -1, P: jobParams{Level: 2}, Moves: []game.Move{0, 2}, State: st})
	if err != nil {
		t.Fatal(err)
	}
	res, err := codec.EncodePayload(nil, svcResult{Key: 7, Seq: 1, Scores: []float64{0.5, 1}, Units: 3})
	if err != nil {
		t.Fatal(err)
	}
	for name, buf := range map[string][]byte{"svcJob": jb, "svcResult": res} {
		for cut := 0; cut < len(buf); cut++ {
			if _, err := codec.DecodePayload(buf[:cut]); err == nil {
				t.Fatalf("%s truncated to %d of %d bytes decoded", name, cut, len(buf))
			}
		}
	}

	// A result claiming 2^40 scores in a 9-byte tail.
	lying := binary.LittleEndian.AppendUint16(nil, uint16(kindSvcResult))
	lying = binary.LittleEndian.AppendUint64(lying, 7)
	lying = binary.AppendUvarint(lying, 1)
	lying = binary.AppendUvarint(lying, 1<<40)
	lying = append(lying, make([]byte, 9)...)
	if _, err := codec.DecodePayload(lying); !errors.Is(err, codec.ErrTruncated) {
		t.Fatalf("lying score count: got %v, want ErrTruncated", err)
	}

	// A job claiming 2^40 moves ahead of a short state.
	lying = binary.LittleEndian.AppendUint16(nil, uint16(kindSvcJob))
	lying = append(lying, 0, 0, 0, 1) // Step, Cand, T, First
	lying = appendPar(lying, -1)
	lying = appendJobParams(lying, jobParams{Level: 2})
	lying = binary.AppendUvarint(lying, 1<<40)
	lying, err = codec.EncodeState(lying, st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := codec.DecodePayload(lying); !errors.Is(err, codec.ErrMalformed) {
		t.Fatalf("lying move count: got %v, want ErrMalformed", err)
	}
}

// TestEvalBatchPayloadRoundTrips covers the exported evaluation batch
// frames (KindEvalBatchRequest / KindEvalBatchReply) — the wire shapes an
// external inference server speaks.
func TestEvalBatchPayloadRoundTrips(t *testing.T) {
	a := game.NewArmTree(3, 4, 9)
	b := game.NewArmTree(3, 4, 9)
	b.Play(1)

	req := EvalBatchRequest{Batch: 0xfeedface, Eval: "heuristic", States: []game.State{a, b}}
	gr := payloadTrip(t, req).(EvalBatchRequest)
	if gr.Batch != req.Batch || gr.Eval != req.Eval || len(gr.States) != 2 {
		t.Fatalf("request round trip: %+v", gr)
	}
	if gr.States[0].MovesPlayed() != 0 || gr.States[1].MovesPlayed() != 1 {
		t.Fatalf("request states not restored: %d, %d moves",
			gr.States[0].MovesPlayed(), gr.States[1].MovesPlayed())
	}

	// Weights round-trip bit-exactly; an empty vector ("no opinion") and an
	// empty batch are both legal.
	rep := EvalBatchReply{Batch: 0xfeedface, Weights: [][]float64{{0.5, 2, 0}, {}, {1}}}
	gp := payloadTrip(t, rep).(EvalBatchReply)
	if gp.Batch != rep.Batch || len(gp.Weights) != len(rep.Weights) {
		t.Fatalf("reply round trip: %+v", gp)
	}
	for i, w := range rep.Weights {
		if len(gp.Weights[i]) != len(w) {
			t.Fatalf("reply weights %d: %v != %v", i, gp.Weights[i], w)
		}
		for j := range w {
			if math.Float64bits(gp.Weights[i][j]) != math.Float64bits(w[j]) {
				t.Fatalf("reply weight [%d][%d]: %v != %v", i, j, gp.Weights[i][j], w[j])
			}
		}
	}
	empty := payloadTrip(t, EvalBatchReply{Batch: 7}).(EvalBatchReply)
	if empty.Batch != 7 || len(empty.Weights) != 0 {
		t.Fatalf("empty reply round trip: %+v", empty)
	}
}

// TestEvalNameLimits pins the remote-controlled-length guard on evaluator
// names: the decoder must reject names beyond wireMaxEvalName and
// truncated name bytes, never allocate for them.
func TestEvalNameLimits(t *testing.T) {
	long := make([]byte, wireMaxEvalName+1)
	for i := range long {
		long[i] = 'x'
	}
	if _, _, err := readEvalName(appendEvalName(nil, string(long))); err == nil {
		t.Fatal("oversized evaluator name accepted")
	}
	buf := appendEvalName(nil, "heuristic")
	if _, _, err := readEvalName(buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated evaluator name accepted")
	}
	name, rest, err := readEvalName(appendEvalName(nil, ""))
	if err != nil || name != "" || len(rest) != 0 {
		t.Fatalf("empty name (uniform sentinel) round trip: %q, %d rest, %v", name, len(rest), err)
	}
}

// TestJobParamsEvalRoundTrip pins the evaluator name riding every pool
// candidate and client job (the codec v3 jobParams extension) and the
// speculation width behind it (the codec v4 extension).
func TestJobParamsEvalRoundTrip(t *testing.T) {
	p := jobParams{
		Slot: 2, Epoch: 9, Level: 3, Seed: 41, Memorize: true,
		JobScale: 1 << 20, Root: mpi.Rank(1), Eval: "heuristic", Speculate: 4,
	}
	got, rest, err := readJobParams(appendJobParams(nil, p))
	if err != nil {
		t.Fatal(err)
	}
	if got != p || len(rest) != 0 {
		t.Fatalf("job params round trip: %+v, %d rest", got, len(rest))
	}
	// A speculation width beyond the remote-controlled-size cap is
	// malformed, not allocated for.
	p.Speculate = wireMaxSpeculate + 1
	if _, _, err := readJobParams(appendJobParams(nil, p)); err == nil {
		t.Fatal("oversized speculation width accepted")
	}
}

func TestWorkerBlobRoundTrip(t *testing.T) {
	cfg := PoolConfig{
		Slots: 3, Medians: 5, Clients: 9, Algo: LastMinute,
		EvalBatch: 16, EvalFlush: 3 * time.Millisecond, Speculate: 2,
	}
	got, err := decodeWorkerBlob(appendWorkerBlob(nil, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if got != cfg {
		t.Fatalf("blob round trip: %+v != %+v", got, cfg)
	}

	// A negative pool-wide speculation width means "off" everywhere it is
	// consulted; the blob clamps it to 0 so the worker sees the same thing.
	neg := cfg
	neg.Speculate = -3
	got, err = decodeWorkerBlob(appendWorkerBlob(nil, neg))
	if err != nil {
		t.Fatal(err)
	}
	if got.Speculate != 0 {
		t.Fatalf("negative speculation width round-tripped as %d, want clamp to 0", got.Speculate)
	}

	if _, err := decodeWorkerBlob(nil); err == nil {
		t.Fatal("empty blob accepted")
	}
	if _, err := decodeWorkerBlob([]byte{workerBlobVersion + 1, 1, 1, 1, 0}); err == nil {
		t.Fatal("foreign blob version accepted")
	}
	if _, err := decodeWorkerBlob(appendWorkerBlob(nil, PoolConfig{})); err == nil {
		t.Fatal("degenerate pool config accepted")
	}
}
