package parallel

// Tests of the pool's chunked client rollouts: the chunk rule itself,
// pool == RunWall equivalence across pool shapes whose chunk counts
// differ, the median's guard against stale, duplicated and malformed
// chunk results, the one-frame-per-median-step count the chunking
// exists for, and the in-place steps of medians colocated with every
// client.

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/game"
	"repro/internal/morpion"
	"repro/internal/mpi"
	"repro/internal/samegame"
	"repro/internal/sudoku"
	"repro/internal/vtime"
)

// chunkShapes are the (medians, clients) pool shapes the chunk tests
// cover: one chunk per step (2,2) and (3,2), which an in-process pool's
// medians score in place, two (2,3) and (4,8).
var chunkShapes = []struct{ medians, clients int }{{2, 2}, {2, 3}, {4, 8}, {3, 2}}

// TestStepChunksCoverEveryCandidateOnce pins the chunk rule: a step of n
// candidates splits into min(n, ceil(C/M)) non-empty contiguous chunks
// that cover every candidate index exactly once, in move order.
func TestStepChunksCoverEveryCandidateOnce(t *testing.T) {
	for _, sh := range chunkShapes {
		for n := 1; n <= 40; n++ {
			k := stepChunks(n, sh.medians, sh.clients)
			if want := min(n, (sh.clients+sh.medians-1)/sh.medians); k != want {
				t.Fatalf("shape %v, n=%d: %d chunks, want %d", sh, n, k, want)
			}
			covered := make([]int, n)
			next := 0
			for i := 0; i < k; i++ {
				lo, hi := chunkBounds(n, k, i)
				if lo != next || hi <= lo {
					t.Fatalf("shape %v, n=%d: chunk %d is [%d, %d) after %d", sh, n, i, lo, hi, next)
				}
				for j := lo; j < hi; j++ {
					covered[j]++
				}
				next = hi
			}
			for j, c := range covered {
				if c != 1 {
					t.Fatalf("shape %v, n=%d: candidate %d covered %d times", sh, n, j, c)
				}
			}
		}
	}
}

// TestChunkedPoolMatchesRunWall runs every domain — uniform, cached (with
// every hit recomputed), evaluator-driven and speculating — on pools
// whose shapes give one, two and more chunks per step, and checks each
// job against its solo RunWall twin, rollout accounting included.
func TestChunkedPoolMatchesRunWall(t *testing.T) {
	cfgs := map[string]Config{
		"morpion":  {Level: 2, Root: morpion.New(morpion.Var4D), Seed: 11, Memorize: true, FirstMoveOnly: true},
		"samegame": {Level: 2, Root: samegame.NewRandom(5, 5, 3, 3), Seed: 5, Memorize: true},
		"sudoku":   {Level: 2, Root: sudoku.New(2), Seed: 7},
		"cached":   {Level: 3, Root: samegame.NewRandom(4, 4, 3, 3), Seed: 5, Memorize: true, Cache: true, CacheVerify: true},
		"eval":     {Level: 2, Root: samegame.NewRandom(5, 5, 3, 3), Seed: 4, Evaluator: game.HeuristicEvaluatorName},
		"spec":     {Level: 2, Root: samegame.NewRandom(6, 6, 3, 3), Seed: 5, Memorize: true, Speculate: 2},
	}
	solo := map[string]Result{}
	for name, cfg := range cfgs {
		// The per-run async root charges its wasted speculative rollouts
		// to the result; the pool's accounting matches the lockstep run.
		cfg.Speculate = 0
		res, err := RunWall(4, 3, cfg)
		if err != nil {
			t.Fatal(err)
		}
		solo[name] = res
	}
	for _, sh := range chunkShapes {
		pool, err := NewPool(PoolConfig{Slots: 2, Medians: sh.medians, Clients: sh.clients, CacheVerify: true})
		if err != nil {
			t.Fatal(err)
		}
		for name, cfg := range cfgs {
			pooled, err := pool.RunJob(0, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := solo[name]
			if cfg.Cache {
				// A hit replaces a rollout's search, and which positions hit
				// depends on what the cache already holds: the game and the
				// rollout count are pinned, the metered work is not.
				assertSameGame(t, name, pooled, want)
				if pooled.Jobs != want.Jobs {
					t.Fatalf("%s: rollouts %d != %d", name, pooled.Jobs, want.Jobs)
				}
				continue
			}
			assertSameResult(t, name, pooled, want)
		}
		pool.Shutdown()
	}
}

// TestMedianShedsBadChunkResults scripts one client answering a median's
// two-chunk step (1 median, 2 clients: chunks [0,1) and [1,3) of three
// ArmTree moves) with a result for a non-chunk-start seq, a result with
// the wrong score count, the real result, a duplicate of it, and a wrong
// key, before the first chunk's real result. Every bad frame carries a
// score that would win the argmax and work units that would show in the
// total; the median's reported game must reflect the real results only.
func TestMedianShedsBadChunkResults(t *testing.T) {
	shape := PoolConfig{Slots: 1, Medians: 1, Clients: 2}
	w := newPoolWorld(shape.withDefaults())
	wc := mpi.NewWallCluster(w.size())
	root := game.NewArmTree(3, 2, 9)
	start := root.Clone()
	start.Play(0)
	p := jobParams{Slot: 0, Epoch: 1, Level: 2, Seed: 3, Root: 0}
	cand := svcCandidate{Step: 0, Cand: 0, Par: -1, P: p, State: start}
	client := w.clients[0]

	var got svcScore
	var mu sync.Mutex
	wc.Start(0, func(c mpi.Comm) { // slot
		msg := c.Recv(mpi.AnyRank, tagStepScore)
		mu.Lock()
		got = msg.Payload.(svcScore)
		mu.Unlock()
		for r := 1; r < w.size(); r++ {
			wc.Inject(mpi.Rank(r), tagShutdown, nil)
		}
	})
	wc.Start(w.sched, func(c mpi.Comm) {
		granted := false
		for {
			msg := c.Recv(mpi.AnyRank, mpi.AnyTag)
			switch {
			case msg.Tag == tagShutdown:
				return
			case msg.Tag == tagWorkReq && !granted:
				granted = true
				c.Send(msg.From, tagGrant, cand)
			}
		}
	})
	wc.Start(w.disp, func(c mpi.Comm) {
		for {
			msg := c.Recv(mpi.AnyRank, mpi.AnyTag)
			switch msg.Tag {
			case tagShutdown:
				return
			case tagRequest:
				c.Send(msg.From, tagAssign, client)
			}
		}
	})
	wc.Start(client, func(c mpi.Comm) {
		var jobs []svcJob
		for len(jobs) < 2 {
			msg := c.Recv(mpi.AnyRank, tagJob)
			jobs = append(jobs, msg.Payload.(svcJob))
		}
		median := w.medians[0]
		key := func(first int) uint64 { return resultKey(p, -1, rolloutKey(0, 0, 0, first)) }
		if jobs[0].First != 0 || len(jobs[0].Moves) != 1 || jobs[1].First != 1 || len(jobs[1].Moves) != 2 {
			t.Errorf("chunks %+v / %+v, want [0,1) and [1,3)", jobs[0], jobs[1])
		}
		for _, r := range []svcResult{
			{Key: key(2), Seq: 2, Scores: []float64{9}, Units: 1000},     // not a chunk start
			{Key: key(1), Seq: 1, Scores: []float64{9}, Units: 1000},     // one score for two moves
			{Key: key(1), Seq: 1, Scores: []float64{0.1, 0.8}, Units: 5}, // the real result
			{Key: key(1), Seq: 1, Scores: []float64{9, 9}, Units: 1000},  // duplicate
			{Key: key(0) + 1, Seq: 0, Scores: []float64{9}, Units: 1000}, // foreign key
			{Key: key(0), Seq: 0, Scores: []float64{0.5}, Units: 7},      // the real result
		} {
			c.Send(median, tagResult, r)
		}
		c.Recv(mpi.External, tagShutdown)
	})
	wc.Start(w.clients[1], func(c mpi.Comm) { c.Recv(mpi.External, tagShutdown) })
	wc.Start(w.medians[0], func(c mpi.Comm) {
		runPoolMedian(c, w, nil, func(time.Duration) {})
	})
	want := start.Clone()
	want.Play(2) // argmax of the real scores [0.5, 0.1, 0.8]
	wc.Run()

	mu.Lock()
	defer mu.Unlock()
	if got.Rollouts != 3 || got.Units != 12 || got.Score != want.Score() {
		t.Fatalf("median reported %+v, want 3 rollouts, 12 units, score %v", got, want.Score())
	}
}

// TestClientRefusesBadChunks sends a client rank a chunk with a move
// that is illegal in the parent and a chunk with no moves, then a real
// chunk: the bad ones are refused without a result (the client only
// frees itself), the real one is answered with one score per move.
func TestClientRefusesBadChunks(t *testing.T) {
	shape := PoolConfig{Slots: 1, Medians: 1, Clients: 1}
	w := newPoolWorld(shape.withDefaults())
	wc := mpi.NewWallCluster(w.size())
	parent := game.NewArmTree(3, 3, 9)
	p := jobParams{Slot: 0, Epoch: 1, Level: 2, Seed: 3, Root: 0}
	client := w.clients[0]
	var frees atomic.Int64

	for _, r := range []mpi.Rank{0, w.sched} {
		wc.Start(r, func(c mpi.Comm) { c.Recv(mpi.External, tagShutdown) })
	}
	wc.Start(w.disp, func(c mpi.Comm) {
		for {
			if msg := c.Recv(mpi.AnyRank, mpi.AnyTag); msg.Tag == tagShutdown {
				return
			} else if msg.Tag == tagFree {
				frees.Add(1)
			}
		}
	})
	wc.Start(client, func(c mpi.Comm) {
		runPoolClient(c, w, newRolloutScorer(newEvalBatcher(1, time.Millisecond, vtime.Wall()), nil, false), func(time.Duration) {})
	})
	wc.Start(w.medians[0], func(c mpi.Comm) {
		for _, jb := range []svcJob{
			{First: 0, Par: -1, P: p, Moves: []game.Move{1, 7}, State: parent}, // arm 7 does not exist
			{First: 2, Par: -1, P: p, State: parent},                           // no moves
			{First: 1, Par: -1, P: p, Moves: []game.Move{1, 2}, State: parent},
		} {
			c.Send(client, tagJob, jb)
		}
		msg := c.Recv(client, tagResult)
		res := msg.Payload.(svcResult)
		if res.Seq != 1 || len(res.Scores) != 2 || res.Key != resultKey(p, -1, rolloutKey(0, 0, 0, 1)) {
			t.Errorf("first result %+v, want the real chunk's two scores", res)
		}
		for r := 0; r < w.size(); r++ {
			if mpi.Rank(r) != w.medians[0] {
				wc.Inject(mpi.Rank(r), tagShutdown, nil)
			}
		}
	})
	wc.Run()
	if n := frees.Load(); n != 3 {
		t.Fatalf("client freed itself %d times for 3 chunks", n)
	}
	if parent.MovesPlayed() != 0 {
		t.Fatalf("client mutated the shared parent: %d moves played", parent.MovesPlayed())
	}
}

// jobCounter counts the chunk jobs sent through countingCluster wrappers
// and the distinct median steps they belong to.
type jobCounter struct {
	mu    sync.Mutex
	jobs  int
	moves int
	steps map[[5]uint64]bool // (slot, epoch, step, cand, t)
}

func newJobCounter() *jobCounter { return &jobCounter{steps: map[[5]uint64]bool{}} }

// countingCluster wraps a cluster so every rank body's Comm counts the
// chunk jobs it sends into n.
type countingCluster struct {
	mpi.Cluster
	n *jobCounter
}

type countingComm struct {
	mpi.Comm
	n *jobCounter
}

func (c countingComm) Send(to mpi.Rank, tag mpi.Tag, payload any) {
	if jb, ok := payload.(svcJob); ok && tag == tagJob {
		c.n.mu.Lock()
		c.n.jobs++
		c.n.moves += len(jb.Moves)
		c.n.steps[[5]uint64{uint64(jb.P.Slot), jb.P.Epoch, uint64(jb.Step), uint64(jb.Cand), uint64(jb.T)}] = true
		c.n.mu.Unlock()
	}
	c.Comm.Send(to, tag, payload)
}

func (cc countingCluster) Start(r mpi.Rank, body func(mpi.Comm)) {
	cc.Cluster.Start(r, func(c mpi.Comm) { body(countingComm{c, cc.n}) })
}

// serveCountedWorker dials a net pool as one worker process and serves its
// rank range with its job sends counted into n until the pool shuts down; the
// returned channel closes once the worker has stopped.
func serveCountedWorker(t *testing.T, pool *Pool, n *jobCounter) <-chan struct{} {
	t.Helper()
	nw, err := mpi.DialWorker(pool.WorkerAddr(), "")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := decodeWorkerBlob(nw.Blob())
	if err != nil {
		t.Fatal(err)
	}
	world := newPoolWorld(blob.withDefaults())
	lo, hi := nw.RankRange()
	startPoolWorkers(countingCluster{nw, n}, world, lo, hi, newEvalBatcher(1, world.cfg.EvalFlush, vtime.Wall()),
		cache.New(1<<20), false, func(int, time.Duration) {}, func(int, time.Duration) {})
	done := make(chan struct{})
	go func() {
		defer close(done)
		nw.Run()
	}()
	return done
}

// TestNetPoolOneJobFramePerMedianStep pins what the chunking buys on the
// benchmark's pool shape (2 medians, 2 clients) when medians and clients
// live in different processes: each median step is shipped to a client
// as exactly one job frame carrying all of the step's candidates, so the
// job frames equal the median steps played and their moves equal the
// rollouts the job reports. The first worker hosts the medians and the
// second the clients, so no median may score in place.
func TestNetPoolOneJobFramePerMedianStep(t *testing.T) {
	pool, err := NewNetPool(PoolConfig{Slots: 1, Medians: 2, Clients: 2}, NetPoolConfig{Listen: "127.0.0.1:0", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	cc := newJobCounter()
	medians := serveCountedWorker(t, pool, cc)
	clients := serveCountedWorker(t, pool, cc)

	cfg := Config{Level: 2, Root: morpion.New(morpion.Var4D), Seed: 11, Memorize: true, FirstMoveOnly: true}
	res, err := pool.RunJob(0, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool.Shutdown()
	<-medians
	<-clients

	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.jobs == 0 || cc.jobs != len(cc.steps) {
		t.Fatalf("%d client job frames for %d median steps", cc.jobs, len(cc.steps))
	}
	if int64(cc.moves) != res.Jobs {
		t.Fatalf("job frames carried %d moves, the job reports %d rollouts", cc.moves, res.Jobs)
	}
}

// TestColocatedPoolScoresInPlace pins the in-place steps: on a pool whose
// medians share a process with every client — an in-process pool, and a
// net pool with a single worker — a 2-median, 2-client shape makes every
// median step one chunk, so the medians score every step themselves and
// no job frame is ever sent, while the job stays bit-identical to solo
// RunWall, rollout accounting included.
func TestColocatedPoolScoresInPlace(t *testing.T) {
	shape := PoolConfig{Slots: 1, Medians: 2, Clients: 2}
	cfg := Config{Level: 2, Root: morpion.New(morpion.Var4D), Seed: 11, Memorize: true, FirstMoveOnly: true}
	solo, err := RunWall(2, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}

	wallCC := newJobCounter()
	wall, err := newCountingPool(shape, wallCC)
	if err != nil {
		t.Fatal(err)
	}
	res, err := wall.RunJob(0, cfg, nil)
	wall.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "wall pool", res, solo)

	netCC := newJobCounter()
	net, err := NewNetPool(shape, NetPoolConfig{Listen: "127.0.0.1:0", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := serveCountedWorker(t, net, netCC)
	res, err = net.RunJob(0, cfg, nil)
	net.Shutdown()
	<-done
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "net pool", res, solo)

	for name, cc := range map[string]*jobCounter{"wall": wallCC, "net": netCC} {
		cc.mu.Lock()
		if cc.jobs != 0 {
			t.Errorf("%s pool: %d client job frames, want every step scored in place", name, cc.jobs)
		}
		cc.mu.Unlock()
	}
}

// newCountingPool is NewPool with every rank's job sends counted into n.
func newCountingPool(cfg PoolConfig, n *jobCounter) (*Pool, error) {
	cfg = cfg.withDefaults()
	world := newPoolWorld(cfg)
	wc := mpi.NewWallCluster(world.size())
	return newPoolOn(world, struct {
		countingCluster
		injector
	}{countingCluster{wc, n}, wc}, nil, newPoolCollector(cfg))
}

// injector is the out-of-world half of poolCluster.
type injector interface {
	Inject(to mpi.Rank, tag mpi.Tag, payload any)
}

// stepLog is a median Comm wrapper that records, in order, the median's
// work requests ("req") and in-place step marks ("mark").
type stepLog struct {
	mpi.Comm
	mu     *sync.Mutex
	events *[]string
}

func (l stepLog) Send(to mpi.Rank, tag mpi.Tag, payload any) {
	l.mu.Lock()
	switch tag {
	case tagWorkReq:
		*l.events = append(*l.events, "req")
	case tagStepMark:
		*l.events = append(*l.events, "mark")
	}
	l.mu.Unlock()
	l.Comm.Send(to, tag, payload)
}

// TestInPlaceGameSeesCancelAtStepBoundary scripts a scheduler that grants
// a one-median, one-client pool's median a candidate and cancels it right
// behind the grant — as a losing speculative branch, and as the epoch-wide
// cancel a CancelJob of a speculating job sends — then grants a live
// candidate. The in-place game must notice the cancel at its first step
// boundary: one step mark, no score, and the live candidate's game played
// to its score, without a single client request.
func TestInPlaceGameSeesCancelAtStepBoundary(t *testing.T) {
	p := jobParams{Slot: 0, Epoch: 1, Level: 2, Seed: 3, Root: 0, Speculate: 1}
	next := p
	next.Epoch = 2
	for name, tc := range map[string]struct {
		cancel svcSpecCancel
		live   svcCandidate
	}{
		"losing branch": {
			cancel: svcSpecCancel{Slot: 0, Epoch: 1, Step: 1, Keep: 1},
			live:   svcCandidate{Step: 1, Cand: 1, Par: 1, P: p},
		},
		"job cancel": {
			cancel: svcSpecCancel{Slot: 0, Epoch: 1, Step: -1, Keep: -1},
			live:   svcCandidate{Step: 0, Cand: 1, Par: -1, P: next},
		},
	} {
		t.Run(name, func(t *testing.T) {
			shape := PoolConfig{Slots: 1, Medians: 1, Clients: 1}
			w := newPoolWorld(shape.withDefaults())
			wc := mpi.NewWallCluster(w.size())
			start := game.NewArmTree(3, 6, 9)
			doomed := svcCandidate{Step: 1, Cand: 0, Par: 0, P: p, State: start.Clone()}
			live := tc.live
			live.State = start.Clone()

			var mu sync.Mutex
			var events []string
			var scores []svcScore
			var requests atomic.Int64
			wc.Start(0, func(c mpi.Comm) { // slot
				msg := c.Recv(mpi.AnyRank, tagStepScore)
				mu.Lock()
				scores = append(scores, msg.Payload.(svcScore))
				mu.Unlock()
				for r := 1; r < w.size(); r++ {
					wc.Inject(mpi.Rank(r), tagShutdown, nil)
				}
			})
			wc.Start(w.sched, func(c mpi.Comm) {
				reqs := 0
				for {
					msg := c.Recv(mpi.AnyRank, mpi.AnyTag)
					switch {
					case msg.Tag == tagShutdown:
						return
					case msg.Tag == tagWorkReq:
						reqs++
						switch reqs {
						case 1:
							c.Send(msg.From, tagGrant, doomed)
							c.Send(msg.From, tagSpecCancel, tc.cancel)
						case 2:
							c.Send(msg.From, tagGrant, live)
						}
					}
				}
			})
			wc.Start(w.disp, func(c mpi.Comm) {
				for {
					msg := c.Recv(mpi.AnyRank, mpi.AnyTag)
					if msg.Tag == tagShutdown {
						return
					}
					if msg.Tag == tagRequest {
						requests.Add(1)
					}
				}
			})
			wc.Start(w.clients[0], func(c mpi.Comm) { c.Recv(mpi.External, tagShutdown) })
			wc.Start(w.medians[0], func(c mpi.Comm) {
				local := newRolloutScorer(newEvalBatcher(1, time.Millisecond, vtime.Wall()), nil, false)
				runPoolMedian(stepLog{c, &mu, &events}, w, local, func(time.Duration) {})
			})
			wc.Run()

			mu.Lock()
			defer mu.Unlock()
			if len(scores) != 1 || scores[0].Cand != live.Cand || scores[0].Epoch != live.P.Epoch {
				t.Fatalf("slot got scores %+v, want the live candidate's only", scores)
			}
			if scores[0].Rollouts == 0 {
				t.Fatal("the live game reported no rollouts")
			}
			// req (initial), req (doomed game starts), its marks, req (live
			// game starts), the live game's marks.
			var marks []int
			for _, e := range events {
				if e == "req" {
					marks = append(marks, 0)
				} else if len(marks) > 0 {
					marks[len(marks)-1]++
				}
			}
			if len(marks) < 3 || marks[0] != 0 || marks[1] != 1 || marks[2] == 0 {
				t.Fatalf("step marks per game %v (events %v): the cancelled game must stop after one step", marks, events)
			}
			if n := requests.Load(); n != 0 {
				t.Fatalf("median asked the dispatcher for %d clients", n)
			}
		})
	}
}
