package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/mpi"
	"repro/internal/service"
)

// Shares of the run's measuring time. An open-loop run spends nominalShare
// at the nominal rate and overloadShare at the overload rate; a traced run
// then sends the first half of the nominal phase's jobs again, traced.
const (
	nominalShare  = 0.7
	overloadShare = 0.3
	warmup        = time.Second
	setupRuns     = 15
)

// Solo re-run sample: the first done job of each domain, then every
// soloStride-th, at most soloLimit; Morpion first-move jobs take a good
// fraction of a second each, so the closed loop re-runs its first two.
const (
	soloStride      = 500
	soloLimit       = 8
	soloLimitClosed = 2
)

// setup builds the workload's rig setupRuns times, timing each build up to
// its first servable job, and keeps the last rig.
func setup(w workload) (*rig, []float64, error) {
	times := make([]float64, 0, setupRuns)
	for {
		t0 := time.Now()
		g, err := build(w)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if len(times) == setupRuns {
			return g, times, nil
		}
		if err := g.close(); err != nil {
			return nil, nil, fmt.Errorf("close set-up %d: %w", len(times), err)
		}
	}
}

// jobsFor is how many jobs a phase of share of budget sends at rate.
func jobsFor(rate float64, budget time.Duration, share float64) int {
	return int(math.Ceil(rate * budget.Seconds() * share))
}

// nominalPhase runs the workload's nominal phase for share of budget: the
// nominal rate for an open loop, otherwise the closed loop. onDone, when
// non-nil, traces the phase's jobs.
func nominalPhase(g *rig, w workload, seed uint64, budget time.Duration, share float64, onDone func(*jobRec)) *phase {
	if !w.openLoop {
		specs := w.jobs(seed, streamNominal, 1000)
		return closedLoop(g, "closed", specs, time.Duration(float64(budget)*share), onDone)
	}
	return openLoop(g, "nominal", w.jobs(seed, streamNominal, jobsFor(w.nominal, budget, share)), w.nominal, onDone)
}

// overloadPhase runs an open-loop workload at its overload rate.
func overloadPhase(g *rig, w workload, seed uint64, budget time.Duration) *phase {
	return openLoop(g, "overload", w.jobs(seed, streamOverload, jobsFor(w.overload, budget, overloadShare)), w.overload, nil)
}

// warm sends a second of nominal-rate jobs whose timings are discarded.
func warm(g *rig, w workload, seed uint64) {
	if w.openLoop {
		openLoop(g, "warmup", w.jobs(seed, streamWarmup, jobsFor(w.nominal, warmup, 1)), w.nominal, nil)
	}
}

// account adds the phases' jobs to the attempted and failed counts and
// checks every done job (replay, plus a solo re-run of the fixed sample).
func account(rep *report, w workload, phases ...*phase) {
	var done []*jobRec
	for _, p := range phases {
		if p == nil {
			continue
		}
		rep.attempted += len(p.recs)
		for i := range p.recs {
			if j := &p.recs[i]; j.failed() {
				rep.fail(fmt.Errorf("%s job %d (%s): state %q, error %v %s", p.name, i, j.spec.Domain, j.st.State, j.err, j.st.Error))
			}
		}
		done = append(done, p.done()...)
	}
	sample := soloSample(done, soloStride, soloLimit)
	if !w.openLoop {
		sample = soloSample(done, 1, soloLimitClosed)
	}
	rep.fail(checkJobs(done, sample)...)
	rep.add("failed_ratio", "ratio", ratio(float64(rep.failed), float64(rep.attempted)), rep.attempted, "")
}

// lateness reports how late the generator sent jobs, flagging a p99 beyond
// the nominal send interval.
func lateness(rep *report, name string, p *phase) {
	xs := p.lateMs()
	v, _ := quantile(xs, 0.99)
	rep.addQuantile(name, "ms", xs, 0.99)
	if p.rate > 0 && v > 1000/p.rate {
		rep.metrics[len(rep.metrics)-1].note = fmt.Sprintf("LATE: beyond the %.3g ms send interval", 1000/p.rate)
	}
}

// tail reports the two untraced nominal-phase figures that move too much
// from run to run on a shared machine to bound: the latency tail, and
// rollouts per second of job run time, which stretches with the CPU time
// other tenants take.
func tail(rep *report, nominal *phase) {
	rep.addQuantile("job_p99_ms", "ms", nominal.latenciesMs(), 0.99)
	rep.add("rollouts_s", "1/s", nominal.sliceMedian((*phase).rolloutRate), len(nominal.done()), "median over slices")
}

// runPlain is the untraced run: the end-to-end metrics.
func runPlain(rep *report, w workload, seed uint64, budget time.Duration) error {
	g, setups, err := setup(w)
	if err != nil {
		return err
	}
	defer g.close() //nolint:errcheck // a drain error after the measurement changes no number
	rep.add("setup_s", "s", median(setups), len(setups), "")
	warm(g, w, seed)
	nominal := nominalPhase(g, w, seed, budget, nominalShare, nil)
	var overload *phase
	if w.openLoop {
		overload = overloadPhase(g, w, seed, budget)
	}

	p50 := func(s *phase) float64 { v, _ := quantile(s.latenciesMs(), 0.5); return v }
	rep.add("job_p50_ms", "ms", nominal.sliceMedian(p50), len(nominal.done()), "median of the slices' p50")
	rep.add("cpu_ms_per_job", "ms", nominal.cpuPerJob(), len(nominal.done()), "process CPU time")
	tail(rep, nominal)
	lateness(rep, "bench.gen_late_ms_p99", nominal)
	if overload != nil {
		rep.add("goodput_jobs_s", "1/s", overload.completionRate(), len(overload.done()), "at the overload rate, median over spans")
		rep.add("shed_ratio", "ratio", ratio(float64(overload.sheds()), float64(len(overload.recs))), len(overload.recs), "")
		rep.add("cpu_ms_per_job.overload", "ms", overload.cpuPerJob(), len(overload.done()), "process CPU time")
		lateness(rep, "bench.gen_late_ms_p99_overload", overload)
	} else {
		rep.add("goodput_jobs_s", "1/s", nominal.sliceMedian((*phase).goodput), len(nominal.done()), "closed loop, one job in flight; median over slices")
	}
	account(rep, w, nominal, overload)
	return nil
}

// runTraced is the traced run: the per-layer metrics.
func runTraced(rep *report, w workload, seed uint64, budget time.Duration, spansPath string) error {
	g, err := build(w)
	if err != nil {
		return err
	}
	defer g.close() //nolint:errcheck // a drain error after the measurement changes no number
	warm(g, w, seed)

	// Pass A: the nominal phase untraced, as in the untraced run, for the
	// tail latency, the Go runtime's numbers and the tracing overhead's
	// baseline.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plain := nominalPhase(g, w, seed, budget, nominalShare, nil)
	runtime.ReadMemStats(&m1)
	nDone := float64(len(plain.done()))
	tail(rep, plain)
	rep.add("go.alloc_bytes_per_job", "B", ratio(float64(m1.TotalAlloc-m0.TotalAlloc), nDone), len(plain.done()), "untraced nominal pass")
	rep.add("go.gc_pause_ms_total", "ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, int(m1.NumGC-m0.NumGC), "untraced nominal pass; n counts GC cycles")

	// Pass B: the first half of pass A's jobs again, traced, with the
	// pools' utilization sampled.
	rec := newRecorder()
	util := sampleUtil(g.r)
	half := &phase{recs: plain.recs[:len(plain.recs)/2]}
	specs := make([]service.JobSpec, len(half.recs))
	for i := range half.recs {
		specs[i] = half.recs[i].spec
	}
	var traced *phase
	if w.openLoop {
		traced = openLoop(g, "traced", specs, w.nominal, rec.record)
	} else {
		traced = closedLoop(g, "traced", specs, math.MaxInt64, rec.record)
	}
	utilSamples := util.finish()
	rep.add("service.pool_util_mean", "ratio", mean(utilSamples), len(utilSamples), "")

	p50A, _ := quantile(half.latenciesMs(), 0.5)
	p50B, _ := quantile(traced.latenciesMs(), 0.5)
	rep.add("trace.overhead_pct", "%", 100*ratio(p50B-p50A, p50A), len(traced.done()),
		fmt.Sprintf("job p50 %.4g ms traced vs %.4g ms untraced, same jobs", p50B, p50A))
	children, sum, self := rec.spanStats()
	rep.addQuantile("trace.children_ms_p50", "ms", sum, 0.5)
	rep.addQuantile("trace.job_self_ms_p50", "ms", self, 0.5)
	for _, name := range jobChildren {
		rep.addQuantile("trace."+name+"_ms_p50", "ms", children[name], 0.5)
	}
	serviceLayer(rep, traced)
	lateness(rep, "bench.gen_late_ms_p99", traced)

	var overload *phase
	var ladder []*phase
	if w.openLoop {
		overload = overloadPhase(g, w, seed, budget)
		rep.add("service.shed_ratio", "ratio", ratio(float64(overload.sheds()), float64(len(overload.recs))), len(overload.recs), "at the overload rate")
		nominal := plain.verdict()
		var rate float64
		var probed []int
		rate, probed, ladder = maxRate(g, w, seed, &nominal, overload.goodput())
		rep.add("service.max_rate_jobs_s", "1/s", rate, len(probed)+1,
			fmt.Sprintf("limit p99 <= %g ms, no sheds, no growing backlog; rungs probed beyond the nominal phase %v", w.limitMs, probed))
	} else {
		rep.add("service.shed_ratio", "ratio", 0, 0, "closed loop: nothing is shed")
		rep.add("service.max_rate_jobs_s", "1/s", 0, 0, "closed loop: no rate ladder")
	}

	if err := layers(rep, g, w, seed, traced, overload); err != nil {
		return err
	}
	account(rep, w, append([]*phase{plain, traced, overload}, ladder...)...)
	return rec.write(spansPath)
}

// serviceLayer reports the service plane's per-job intervals of a phase.
func serviceLayer(rep *report, p *phase) {
	done := p.done()
	rep.addQuantile("service.admit_us_p50", "us", collect(done, func(j *jobRec) float64 { return us(j.subEnd.Sub(j.subStart)) }), 0.5)
	queue := collect(done, func(j *jobRec) float64 { return ms(j.st.Started.Sub(j.st.Submitted)) })
	rep.addQuantile("service.queue_wait_ms_p50", "ms", queue, 0.5)
	rep.addQuantile("service.queue_wait_ms_p99", "ms", queue, 0.99)
	run := collect(done, func(j *jobRec) float64 { return ms(j.st.Finished.Sub(j.st.Started)) })
	rep.addQuantile("service.run_ms_p50", "ms", run, 0.5)
	rep.addQuantile("service.run_ms_p99", "ms", run, 0.99)
	rep.addQuantile("service.deliver_us_p50", "us", collect(done, func(j *jobRec) float64 { return us(j.recv.Sub(j.local(j.st.Finished))) }), 0.5)
}

// replaySpecs is the fixed sample of the workload's jobs the layer ladder
// replays: two of each domain of the serve workloads, one Morpion job.
func replaySpecs(w workload, seed uint64) []service.JobSpec {
	r := stream(seed, w.name, streamReplay)
	want := map[string]int{"sudoku": 2, "samegame": 2, "morpion": 1}
	var out []service.JobSpec
	for range 1000 {
		spec := w.draw(r)
		if want[spec.Domain] > 0 {
			want[spec.Domain]--
			out = append(out, spec)
		}
	}
	return out
}

// How often the ladder times each of its sample jobs: tiny jobs often, a
// Morpion first-move search a few times.
const (
	replayReps        = 10
	replayRepsMorpion = 3
)

// layers reports the parallel, mpi, core, domain and ladder metrics.
func layers(rep *report, g *rig, w workload, seed uint64, traced, overload *phase) error {
	costs, err := measureDomains(seed)
	if err != nil {
		return err
	}
	for _, d := range []string{"morpion", "samegame", "sudoku"} {
		rep.add(d+".play_undo_ns", "ns", costs[d].PlayUndoNs, domainPositions, "")
		rep.add(d+".legal_moves_ns", "ns", costs[d].LegalNs, domainPositions, "")
	}

	specs := replaySpecs(w, seed)
	reps := replayReps
	if !w.openLoop {
		reps = replayRepsMorpion
	}
	var sample, nested1, stepsPl, playouts []float64
	var selfs [4][]float64
	corePl := map[string][]float64{}
	for _, spec := range specs {
		r, err := replayRungs(g, w, spec, reps)
		if err != nil {
			return err
		}
		sample = append(sample, r.sampleUs)
		nested1 = append(nested1, r.nested1Ms)
		stepsPl = append(stepsPl, r.stepsPerPl)
		playouts = append(playouts, ratio(1e9, r.coreNsPerPl))
		corePl[r.domain] = append(corePl[r.domain], r.coreNsPerPl)
		s := r.self(costs)
		for i, v := range []float64{s.domain, s.core, s.parallel, s.service} {
			selfs[i] = append(selfs[i], v)
		}
	}
	n := len(specs) * reps
	rep.add("core.sample_us", "us", mean(sample), n*samplePlayouts, "")
	rep.add("core.nested1_ms", "ms", mean(nested1), n, "")
	rep.add("core.steps_per_playout", "count", mean(stepsPl), n, "")
	rep.add("core.playouts_s", "1/s", mean(playouts), n, "sequential level-2 search")
	for i, name := range []string{"domain", "core_self", "parallel_self", "service_self"} {
		rep.add("ladder."+name+"_ms_per_job", "ms", mean(selfs[i]), n, "replayed sample, one job at a time")
	}

	// parallel.overhead_ms_per_job: each traced job's run time minus its
	// solo core time, the latter from the ladder's per-rollout core time
	// for the job's domain scaled by the job's exact rollout count.
	done := traced.done()
	overhead := collect(done, func(j *jobRec) float64 {
		return ms(j.st.Finished.Sub(j.st.Started)) - mean(corePl[j.spec.Domain])*float64(j.st.Rollouts)/1e6
	})
	rep.addQuantile("parallel.overhead_ms_per_job", "ms", overhead, 0.5)
	parallelLayer(rep, traced, w)
	return netLayer(rep, w, traced, overload, specs, reps)
}

// parallelLayer reports the pools' instrumentation moved by a phase.
func parallelLayer(rep *report, p *phase, w workload) {
	a, b := p.before.Pool, p.after.Pool
	jobs := float64(len(p.done()))
	steps := float64(b.StepCount - a.StepCount)
	rep.add("parallel.step_ms_mean", "ms", ratio(ms(b.StepLatencySum-a.StepLatencySum), steps), int(steps), "")
	rep.add("parallel.step_ms_max", "ms", ms(b.StepLatencyMax), int(b.StepCount), "over the Router's lifetime")
	rep.add("parallel.steps_per_job", "count", ratio(steps, jobs), int(jobs), "")
	rep.add("parallel.rollouts_per_job", "count", ratio(float64(b.Jobs-a.Jobs), jobs), int(jobs), "")
	wall := p.end.Sub(p.start)
	rep.add("parallel.median_idle_pct", "%", idlePct(a.MedianIdle, b.MedianIdle, wall), len(b.MedianIdle), "")
	rep.add("parallel.client_idle_pct", "%", idlePct(a.ClientIdle, b.ClientIdle, wall), len(b.ClientIdle), "")
	rep.add("parallel.queue_depth_mean", "count", b.QueueDepthMean, int(b.StepCount), "over the Router's lifetime")
	rep.add("parallel.queue_depth_max", "count", float64(b.QueueDepthMax), int(b.StepCount), "over the Router's lifetime")
}

// idlePct is the ranks' mean share of wall spent idle between snapshots.
func idlePct(a, b []time.Duration, wall time.Duration) float64 {
	var idle time.Duration
	for i := range b {
		idle += b[i]
		if i < len(a) {
			idle -= a[i]
		}
	}
	return 100 * ratio(float64(idle), float64(wall)*float64(len(b)))
}

// netLayer reports the transport's numbers: from the traced phase on a
// workload with a network, otherwise from the replay sample run over one
// loopback TCP worker.
func netLayer(rep *report, w workload, traced, overload *phase, specs []service.JobSpec, reps int) error {
	d, rateD := netOf(traced), netOf(overload)
	jobs := len(traced.done())
	rateWall := time.Duration(0)
	note := "traced nominal phase; frames_s at the overload rate"
	if overload != nil {
		rateWall = overload.end.Sub(overload.start)
	}
	if w.router.Workers == 0 {
		var err error
		d, jobs, rateWall, err = netRung(specs, reps)
		if err != nil {
			return err
		}
		rateD = d
		note = "replayed sample over one loopback TCP worker"
	}
	frames := float64(d.FramesSent + d.FramesRecv)
	rep.add("mpi.frames_per_job", "count", ratio(frames, float64(jobs)), jobs, note)
	rep.add("mpi.bytes_per_job", "B", ratio(float64(d.BytesSent+d.BytesRecv), float64(jobs)), jobs, note)
	rep.add("mpi.encode_ns_per_frame", "ns", ratio(float64(d.EncodeNs), float64(d.FramesSent)), int(d.FramesSent), note)
	rep.add("mpi.decode_ns_per_frame", "ns", ratio(float64(d.DecodeNs), float64(d.FramesRecv)), int(d.FramesRecv), note)
	rep.add("mpi.frames_s", "1/s", ratio(float64(rateD.FramesSent+rateD.FramesRecv), rateWall.Seconds()), int(rateD.FramesSent+rateD.FramesRecv), note)
	return nil
}

// netOf is the transport counters a phase moved (zero without a network).
func netOf(p *phase) (d mpi.NetStats) {
	if p == nil || p.before.Pool.Net == nil || p.after.Pool.Net == nil {
		return d
	}
	return netDelta(*p.before.Pool.Net, *p.after.Pool.Net)
}
