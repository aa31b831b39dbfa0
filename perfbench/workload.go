package main

import (
	"hash/fnv"

	"repro/internal/rng"
	"repro/internal/service"
)

// workload is one traffic mix: the Router it runs against, how jobs arrive
// and which jobs they are. Everything else in the Router stays at its
// defaults: uniform playouts, no transposition cache, Speculate 0.
type workload struct {
	name   string
	router service.Config
	// openLoop workloads send jobs on a schedule at the nominal and
	// overload rates; the others keep exactly one job in flight.
	openLoop bool
	nominal  float64 // jobs/s
	overload float64 // jobs/s
	limitMs  float64 // ladder limit on submit→terminal p99
	// draw returns the next job of the workload's stream.
	draw func(r *rng.Rand) service.JobSpec
}

// queueLimit is every pool's waiting-queue bound.
const queueLimit = 8

var workloads = []workload{
	{
		// Tiny jobs: their ~1.3 ms run time is mostly protocol round-trips
		// in internal/parallel plus service-plane overhead, so this is the
		// workload that sees the service and parallel layers.
		name: "serve-small",
		router: service.Config{Pools: 2, Slots: 1, Medians: 2, Clients: 2,
			QueueLimit: queueLimit},
		openLoop: true, nominal: 500, overload: 2500, limitMs: 20,
		draw: smallJob,
	},
	{
		// The same jobs with the medians and clients behind one loopback
		// TCP worker: the only workload that exercises internal/mpi's
		// NetCluster, the wire codec and the worker handshake.
		name: "serve-net",
		router: service.Config{Pools: 1, Slots: 2, Medians: 2, Clients: 2,
			QueueLimit: queueLimit, Workers: 1},
		openLoop: true, nominal: 60, overload: 400, limitMs: 50,
		draw: smallJob,
	},
	{
		// Morpion 5D first-move searches, the paper's variant and its
		// first-move experiments: compute-bound in the domain layer, with
		// the Router used lightly. A first-move job sums a level-1 game
		// under each of the opening's candidates, so its work hardly
		// depends on its seed, unlike a whole game's.
		name: "search-morpion",
		router: service.Config{Pools: 1, Slots: 1, Medians: 2, Clients: 2,
			QueueLimit: queueLimit},
		draw: morpionFirstMove,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// nonZero draws a seed; 0 means "unset" to the service, so it is skipped.
func nonZero(r *rng.Rand) uint64 {
	for {
		if v := r.Uint64(); v != 0 {
			return v
		}
	}
}

// smallJob is the serve workloads' job: two thirds sudoku box 2, one third
// a drawn 5×5 three-colour SameGame board, level 2 with memorization.
func smallJob(r *rng.Rand) service.JobSpec {
	if r.Intn(3) < 2 {
		return service.JobSpec{Domain: "sudoku", Box: 2, Level: 2, Seed: nonZero(r), Memorize: true}
	}
	return service.JobSpec{Domain: "samegame", Width: 5, Height: 5, Colors: 3,
		BoardSeed: nonZero(r), Level: 2, Seed: nonZero(r), Memorize: true}
}

// morpionFirstMove is a level-2 Morpion 5D first-move search with
// memorization.
func morpionFirstMove(r *rng.Rand) service.JobSpec {
	return service.JobSpec{Domain: "morpion", Variant: "5D", Level: 2, Seed: nonZero(r),
		Memorize: true, FirstMoveOnly: true}
}

// Job-stream phases: each phase draws from its own stream, so a phase's
// jobs do not depend on how many jobs an earlier phase happened to send.
const (
	streamWarmup = iota + 1
	streamNominal
	streamOverload
	streamLadder
	streamReplay
	streamDomains
)

// stream returns the random source of one phase of a workload's job
// stream, a pure function of the workload seed.
func stream(seed uint64, name string, phase int) *rng.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rng.NewStream(seed, rng.Fold(h.Sum64(), uint64(phase)))
}

// jobs draws n jobs of the workload from one phase's stream.
func (w workload) jobs(seed uint64, phase, n int) []service.JobSpec {
	r := stream(seed, w.name, phase)
	out := make([]service.JobSpec, n)
	for i := range out {
		out[i] = w.draw(r)
	}
	return out
}
