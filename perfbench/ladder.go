package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/game"
	"repro/internal/mpi"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/service"
)

// domainCost is what one domain's Play/Undo and LegalMoves cost.
type domainCost struct {
	PlayUndoNs float64 // one Play followed by its Undo
	LegalNs    float64 // one LegalMoves call
}

// measureDomain walks random games from root and times, at each position,
// a Play/Undo pair on every legal move and legalReps LegalMoves calls,
// until positions positions were visited.
func measureDomain(root game.State, r *rng.Rand, positions int) domainCost {
	const legalReps = 4
	var pairs, calls int64
	var pairT, legalT time.Duration
	st := root.Clone().(game.Undoer)
	var moves, scratch []game.Move
	for n := 0; n < positions; n++ {
		if st.Terminal() {
			st = root.Clone().(game.Undoer)
		}
		moves = st.LegalMoves(moves[:0])
		t0 := time.Now()
		for range legalReps {
			scratch = st.LegalMoves(scratch[:0])
		}
		t1 := time.Now()
		for _, m := range moves {
			st.Play(m)
			st.Undo()
		}
		t2 := time.Now()
		legalT += t1.Sub(t0)
		pairT += t2.Sub(t1)
		calls += legalReps
		pairs += int64(len(moves))
		st.Play(moves[r.Intn(len(moves))])
	}
	return domainCost{
		PlayUndoNs: ratio(float64(pairT), float64(pairs)),
		LegalNs:    ratio(float64(legalT), float64(calls)),
	}
}

// domainPositions is how many positions each domain's cost is measured on.
const domainPositions = 3000

// measureDomains times all three domains on positions drawn from seed:
// the paper's Morpion 5D, and the serve workloads' sudoku box 2 and
// 5×5 three-colour SameGame.
func measureDomains(seed uint64) (map[string]domainCost, error) {
	r := rng.NewStream(seed, streamDomains)
	specs := []service.JobSpec{
		{Domain: "morpion", Variant: "5D", Level: 2},
		{Domain: "samegame", Width: 5, Height: 5, Colors: 3, BoardSeed: nonZero(r), Level: 2},
		{Domain: "sudoku", Box: 2, Level: 2},
	}
	out := map[string]domainCost{}
	for _, spec := range specs {
		root, err := spec.Root()
		if err != nil {
			return nil, err
		}
		out[spec.Domain] = measureDomain(root, r, domainPositions)
	}
	return out, nil
}

// rungs is one spec's ladder replay: the same search through each layer,
// timed alone, with the exact counts that normalise the differences.
type rungs struct {
	domain      string
	rollouts    int64   // client rollouts of the job (RunWall result)
	stepsPerPl  float64 // search steps per playout (core.Searcher stats)
	coreNsPerPl float64 // sequential core.Searcher time per playout
	sampleUs    float64 // one level-0 playout from the root
	nested1Ms   float64 // one level-1 search from the root
	wallMs      float64 // parallel.RunWall
	routerMs    float64 // Router submit→terminal on an idle Router
}

// samplePlayouts is how many level-0 playouts time core.sample_us.
const samplePlayouts = 200

// replayRungs times spec through core.Searcher, parallel.RunWall and the
// idle Router g, each reps times, keeping the medians. The Router's result
// must equal RunWall's.
func replayRungs(g *rig, w workload, spec service.JobSpec, reps int) (rungs, error) {
	cfg, err := spec.Config()
	if err != nil {
		return rungs{}, err
	}
	out := rungs{domain: spec.Domain}
	var corePl, sample, nested1, wall, router []float64
	for range reps {
		// The parallel root and medians take plain per-step argmax
		// (parallel.Config.Memorize only reaches the client rollouts,
		// which are level-0 playouts at level 2), so the sequential
		// equivalent runs without memorization.
		s := core.NewSearcher(rng.New(spec.Seed), core.Options{})
		t0 := time.Now()
		s.Nested(cfg.Root.Clone(), cfg.Level)
		dt := time.Since(t0)
		stats := s.Stats()
		corePl = append(corePl, ratio(float64(dt), float64(stats.Playouts)))
		out.stepsPerPl = ratio(float64(stats.Steps), float64(stats.Playouts))

		t0 = time.Now()
		for range samplePlayouts {
			s.Sample(cfg.Root.Clone())
		}
		sample = append(sample, us(time.Since(t0))/samplePlayouts)

		t0 = time.Now()
		s.Nested(cfg.Root.Clone(), 1)
		nested1 = append(nested1, ms(time.Since(t0)))

		t0 = time.Now()
		res, err := parallel.RunWall(w.router.Clients, w.router.Medians, cfg)
		if err != nil {
			return rungs{}, fmt.Errorf("replay RunWall: %w", err)
		}
		wall = append(wall, ms(time.Since(t0)))
		out.rollouts = res.Jobs

		t0 = time.Now()
		id, err := g.r.Submit(context.Background(), spec)
		var st service.JobStatus
		if err == nil {
			st, err = g.r.Wait(context.Background(), id)
		}
		router = append(router, ms(time.Since(t0)))
		if err == nil && st.State != service.StateDone {
			err = fmt.Errorf("state %s", st.State)
		}
		if err == nil {
			err = matches(st, res)
		}
		if err != nil {
			return rungs{}, fmt.Errorf("replay Router: %w", err)
		}
	}
	out.coreNsPerPl = median(corePl)
	out.sampleUs = median(sample)
	out.nested1Ms = median(nested1)
	out.wallMs = median(wall)
	out.routerMs = median(router)
	return out, nil
}

// layerSelf is one spec's per-layer self time in ms per job: each rung
// minus the rung below, the lower rungs scaled by the exact counts (steps
// per rollout, rollouts per job). The domain rung is its Play/Undo pairs,
// so move generation counts in the core's self time.
type layerSelf struct{ domain, core, parallel, service float64 }

func (r rungs) self(costs map[string]domainCost) layerSelf {
	n := float64(r.rollouts)
	domain := costs[r.domain].PlayUndoNs * r.stepsPerPl * n / 1e6
	core := r.coreNsPerPl * n / 1e6
	return layerSelf{
		domain:   domain,
		core:     core - domain,
		parallel: r.wallMs - core,
		service:  r.routerMs - r.wallMs,
	}
}

// netRung runs specs one after another on a Router of the serve-net shape
// (one loopback TCP worker) and returns the transport counters they moved
// with the jobs run and the wall time taken: the mpi layer's numbers for a
// workload whose own Router has no network.
func netRung(specs []service.JobSpec, reps int) (mpi.NetStats, int, time.Duration, error) {
	w, _ := workloadByName("serve-net")
	g, err := build(w)
	if err != nil {
		return mpi.NetStats{}, 0, 0, err
	}
	defer g.close() //nolint:errcheck // the counters are read before
	before := *g.r.Metrics().Pool.Net
	t0 := time.Now()
	jobs := 0
	for range reps {
		for _, spec := range specs {
			id, err := g.r.Submit(context.Background(), spec)
			if err == nil {
				_, err = g.r.Wait(context.Background(), id)
			}
			if err != nil {
				return mpi.NetStats{}, 0, 0, fmt.Errorf("net rung: %w", err)
			}
			jobs++
		}
	}
	elapsed := time.Since(t0)
	return netDelta(before, *g.r.Metrics().Pool.Net), jobs, elapsed, nil
}

// netDelta is the counters moved between two snapshots.
func netDelta(a, b mpi.NetStats) mpi.NetStats {
	return mpi.NetStats{
		FramesSent: b.FramesSent - a.FramesSent,
		FramesRecv: b.FramesRecv - a.FramesRecv,
		BytesSent:  b.BytesSent - a.BytesSent,
		BytesRecv:  b.BytesRecv - a.BytesRecv,
		EncodeNs:   b.EncodeNs - a.EncodeNs,
		DecodeNs:   b.DecodeNs - a.DecodeNs,
	}
}
