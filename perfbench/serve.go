package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/mpi"
	"repro/internal/parallel"
	"repro/internal/service"
)

// rig is one built Router plus, for a distributed workload, the in-process
// worker serving its medians and clients over loopback TCP.
type rig struct {
	r          *service.Router
	workerDone chan struct{} // closed once the worker has returned
	workerErr  error
}

// firstJob is the job that proves a freshly built rig can serve; it is the
// same tiny job on every workload, so set-up time does not depend on the
// workload's own jobs.
var firstJob = service.JobSpec{Domain: "sudoku", Box: 2, Level: 2, Seed: 1, Memorize: true}

// build constructs the workload's Router, dials its worker if it has one,
// and runs one job to completion: everything up to the first servable job.
func build(w workload) (*rig, error) {
	r, err := service.NewRouter(w.router)
	if err != nil {
		return nil, fmt.Errorf("build router: %w", err)
	}
	g := &rig{r: r}
	if w.router.Workers > 0 {
		nw, err := mpi.DialWorker(r.WorkerAddr(), "")
		if err != nil {
			r.Shutdown(context.Background()) //nolint:errcheck // already failing
			return nil, fmt.Errorf("dial worker: %w", err)
		}
		g.workerDone = make(chan struct{})
		go func() {
			defer close(g.workerDone)
			_, g.workerErr = parallel.ServeWorker(nw)
		}()
	}
	id, err := r.Submit(context.Background(), firstJob)
	if err == nil {
		var st service.JobStatus
		st, err = r.Wait(context.Background(), id)
		if err == nil && st.State != service.StateDone {
			err = fmt.Errorf("state %s: %s", st.State, st.Error)
		}
	}
	if err != nil {
		g.close() //nolint:errcheck // already failing
		return nil, fmt.Errorf("first job: %w", err)
	}
	return g, nil
}

// close drains the Router and waits for the worker to return.
func (g *rig) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := g.r.Shutdown(ctx)
	if g.workerDone != nil {
		<-g.workerDone
		err = errors.Join(err, g.workerErr)
	}
	return err
}

// jobRec is everything the benchmark learns about one submitted job.
type jobRec struct {
	spec     service.JobSpec
	due      time.Time // when the schedule said to send it
	subStart time.Time // Router.Submit called
	subEnd   time.Time // Router.Submit returned
	shed     bool      // refused with ErrSaturated
	err      error     // any other Submit or Watch error
	st       service.JobStatus
	recv     time.Time // terminal status received from Watch
	inflight int       // jobs admitted and not yet terminal at submit
}

// failed reports a job that was admitted but did not end done and whole.
func (j *jobRec) failed() bool {
	return !j.shed && (j.err != nil || j.st.State != service.StateDone || j.st.Stopped)
}

// latency is the user-visible time: due send time to terminal receipt.
func (j *jobRec) latency() time.Duration { return j.recv.Sub(j.due) }

// local maps a JobStatus timestamp onto the benchmark's clock. The service
// stamps jobs with its epoch plus its clock's reading, and the two are
// taken at different moments while a Router is built, so its timestamps
// sit a constant offset away from the caller's time. Re-anchoring each
// job's Submitted on the middle of its Submit call removes that offset,
// to within half the call.
func (j *jobRec) local(t time.Time) time.Time {
	mid := j.subStart.Add(j.subEnd.Sub(j.subStart) / 2)
	return t.Add(mid.Sub(j.st.Submitted))
}

// phase is one run of a job stream against a rig.
type phase struct {
	name       string
	rate       float64 // offered jobs/s; 0 for the closed loop
	recs       []jobRec
	start, end time.Time // first due time; last terminal receipt
	before     service.RouterMetrics
	after      service.RouterMetrics
	cpu        time.Duration // process CPU time (user + system) the phase took
}

// submit sends one job and starts watching it at once: a watch that starts
// later can miss a status the Router has already evicted (Config.Retain).
// onDone runs on the watching goroutine after the terminal status arrives.
func submit(r *service.Router, rec *jobRec, inflight *atomic.Int64, wg *sync.WaitGroup, onDone func(*jobRec)) {
	rec.inflight = int(inflight.Load())
	rec.subStart = time.Now()
	id, err := r.Submit(context.Background(), rec.spec)
	rec.subEnd = time.Now()
	if errors.Is(err, service.ErrSaturated) {
		rec.shed = true
		return
	}
	if err != nil {
		rec.err = err
		return
	}
	ch, stop, err := r.Watch(id)
	if err != nil {
		rec.err = fmt.Errorf("watch %s: %w", id, err)
		return
	}
	inflight.Add(1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop()
		for st := range ch {
			rec.st = st
			if st.State.Terminal() {
				rec.recv = time.Now()
			}
		}
		inflight.Add(-1)
		if onDone != nil {
			onDone(rec)
		}
	}()
}

// openLoop sends specs at a fixed rate from one generator goroutine,
// whatever the Router's state, and waits for every admitted job to end.
func openLoop(g *rig, name string, specs []service.JobSpec, rate float64, onDone func(*jobRec)) *phase {
	p := &phase{name: name, rate: rate, recs: make([]jobRec, len(specs))}
	var wg sync.WaitGroup
	var inflight atomic.Int64
	p.before = g.r.Metrics()
	cpu0 := cpuTime()
	p.start = time.Now().Add(time.Millisecond)
	for i := range specs {
		rec := &p.recs[i]
		rec.spec = specs[i]
		rec.due = p.start.Add(time.Duration(float64(i) * float64(time.Second) / rate))
		if d := time.Until(rec.due); d > 0 {
			time.Sleep(d)
		}
		submit(g.r, rec, &inflight, &wg, onDone)
	}
	wg.Wait()
	p.cpu = cpuTime() - cpu0
	p.finish(g)
	return p
}

// closedLoop keeps one job in flight: each job is due the moment the
// previous one ended. It sends specs in order until budget has elapsed
// (at least one job).
func closedLoop(g *rig, name string, specs []service.JobSpec, budget time.Duration, onDone func(*jobRec)) *phase {
	p := &phase{name: name}
	var wg sync.WaitGroup
	var inflight atomic.Int64
	p.before = g.r.Metrics()
	cpu0 := cpuTime()
	p.start = time.Now()
	p.recs = make([]jobRec, 0, len(specs))
	due := p.start
	for _, spec := range specs {
		if len(p.recs) > 0 && time.Since(p.start) >= budget {
			break
		}
		p.recs = append(p.recs, jobRec{spec: spec, due: due})
		rec := &p.recs[len(p.recs)-1]
		submit(g.r, rec, &inflight, &wg, onDone)
		wg.Wait()
		due = rec.recv
		if rec.recv.IsZero() {
			due = time.Now()
		}
	}
	p.cpu = cpuTime() - cpu0
	p.finish(g)
	return p
}

// cpuTime is the process's CPU time so far, user plus system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (p *phase) finish(g *rig) {
	p.after = g.r.Metrics()
	p.end = lastReceipt(p.start, p.recs)
}

// lastReceipt is the latest terminal receipt among recs, or from when none
// is later.
func lastReceipt(from time.Time, recs []jobRec) time.Time {
	for i := range recs {
		if t := recs[i].recv; t.After(from) {
			from = t
		}
	}
	return from
}

// done returns the jobs that were admitted and ended done.
func (p *phase) done() []*jobRec {
	var out []*jobRec
	for i := range p.recs {
		if j := &p.recs[i]; !j.shed && !j.failed() {
			out = append(out, j)
		}
	}
	return out
}

func (p *phase) sheds() int {
	n := 0
	for i := range p.recs {
		if p.recs[i].shed {
			n++
		}
	}
	return n
}

func (p *phase) failures() int {
	n := 0
	for i := range p.recs {
		if p.recs[i].failed() {
			n++
		}
	}
	return n
}

// latenciesMs returns the submit→terminal latencies of the done jobs.
func (p *phase) latenciesMs() []float64 {
	return collect(p.done(), func(j *jobRec) float64 { return ms(j.latency()) })
}

// goodput is done jobs per second from the first due time to the last
// terminal receipt.
func (p *phase) goodput() float64 {
	return ratio(float64(len(p.done())), p.end.Sub(p.start).Seconds())
}

// windows is how many consecutive slices of a phase its end-to-end figures
// are taken over. Reporting the median slice keeps a burst of interference
// from other work on the machine inside one slice instead of the figure.
const windows = 5

// slices cuts the phase's jobs, in send order, into windows consecutive
// phases.
func (p *phase) slices() []*phase {
	n := len(p.recs)
	out := make([]*phase, 0, windows)
	for k := range windows {
		lo, hi := k*n/windows, (k+1)*n/windows
		if lo == hi {
			continue
		}
		start := p.recs[lo].due
		out = append(out, &phase{name: p.name, rate: p.rate, recs: p.recs[lo:hi],
			start: start, end: lastReceipt(start, p.recs[lo:hi])})
	}
	return out
}

// sliceMedian is the median over the phase's slices of f.
func (p *phase) sliceMedian(f func(*phase) float64) float64 {
	var xs []float64
	for _, s := range p.slices() {
		xs = append(xs, f(s))
	}
	return median(xs)
}

// completionRate is the median over windows equal spans of the sending
// time of the jobs per second that ended done in each span: an open-loop
// phase's goodput, which does not depend on how long the last jobs queued.
func (p *phase) completionRate() float64 {
	span := p.recs[len(p.recs)-1].due.Sub(p.start) / windows
	if span <= 0 {
		return p.goodput()
	}
	counts := make([]float64, windows)
	for _, j := range p.done() {
		if k := int(j.recv.Sub(p.start) / span); k < windows {
			counts[k]++
		}
	}
	for k := range counts {
		counts[k] /= span.Seconds()
	}
	return median(counts)
}

// rolloutRate is client rollouts per second of job run time, summed over
// the done jobs.
func (p *phase) rolloutRate() float64 {
	var rollouts int64
	var run time.Duration
	for _, j := range p.done() {
		rollouts += j.st.Rollouts
		run += j.st.Finished.Sub(j.st.Started)
	}
	return ratio(float64(rollouts), run.Seconds())
}

// cpuPerJob is the process CPU time the phase took per done job, in ms:
// what a job costs, whatever else the machine runs meanwhile.
func (p *phase) cpuPerJob() float64 {
	return ratio(ms(p.cpu), float64(len(p.done())))
}

// lateMs is the generator's lateness per job: Submit call minus due time.
func (p *phase) lateMs() []float64 {
	out := make([]float64, 0, len(p.recs))
	for i := range p.recs {
		out = append(out, ms(p.recs[i].subStart.Sub(p.recs[i].due)))
	}
	return out
}

// verdict summarises the phase as one ladder rung.
func (p *phase) verdict() probeVerdict {
	p99, ok := quantile(p.latenciesMs(), 0.99)
	v := probeVerdict{P99Ms: p99, Supported: ok, Sheds: p.sheds(), Failed: p.failures()}
	third := len(p.recs) / 3
	if third > 0 {
		var head, tail []float64
		for i := range p.recs {
			switch {
			case i < third:
				head = append(head, float64(p.recs[i].inflight))
			case i >= len(p.recs)-third:
				tail = append(tail, float64(p.recs[i].inflight))
			}
		}
		v.BacklogHead, v.BacklogTail = mean(head), mean(tail)
	}
	return v
}

func collect(js []*jobRec, f func(*jobRec) float64) []float64 {
	out := make([]float64, len(js))
	for i, j := range js {
		out[i] = f(j)
	}
	return out
}

// ladderJobs is the size of one ladder rung: enough jobs that p99 has
// minBeyond samples beyond it.
const ladderJobs = 100 * minBeyond

// maxRate walks the workload's fixed rate ladder (nominal × 1.05^k) for
// the highest rung that meets the limit. Rung 0 is the nominal rate, whose
// verdict the caller may pass in from a phase that supports p99 (nil
// probes it); the first rung above the measured overload goodput bounds
// the search from above, since no rate beyond capacity can hold its
// backlog. It returns 0 when even the nominal rate fails, the rungs
// probed, and their phases for the output check.
func maxRate(g *rig, w workload, seed uint64, nominal *probeVerdict, goodput float64) (float64, []int, []*phase) {
	specs := w.jobs(seed, streamLadder, ladderJobs)
	var phases []*phase
	probe := func(k int) bool {
		p := openLoop(g, "ladder", specs, rungRate(w.nominal, k), nil)
		phases = append(phases, p)
		return p.verdict().passes(w.limitMs)
	}
	var probed []int
	if nominal == nil || !nominal.Supported {
		probed = append(probed, 0)
		if !probe(0) {
			return 0, probed, phases
		}
	} else if !nominal.passes(w.limitMs) {
		return 0, nil, nil
	}
	hi := 1
	for rungRate(w.nominal, hi) <= goodput {
		hi++
	}
	best, more := searchLadder(0, hi, probe)
	return rungRate(w.nominal, best), append(probed, more...), phases
}
