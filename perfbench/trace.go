package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/service"
)

// span is one interval at a layer boundary. Spans of one job share Job;
// Parent names the span that caused this one ("" for the job span).
type span struct {
	Job    string        `json:"job"`
	Name   string        `json:"name"`
	Parent string        `json:"parent,omitempty"`
	Start  time.Duration `json:"start_ns"` // since the recorder's epoch
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// selfTime is the span's duration minus the part of its interval that its
// children cover; overlapping children count once.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	covered := time.Duration(0)
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			covered += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.hi - cur.lo
	}
	return parent.dur() - covered
}

// Child spans of every job, in the order a job passes through them. What
// they leave of the job span, its self time, is the generator's delay from
// the due time to the Submit call.
var jobChildren = []string{"admission", "queue", "run", "delivery"}

// jobSpans cuts a finished job into its job span and the admission, queue,
// run and delivery children, all relative to epoch.
func jobSpans(epoch time.Time, id string, j *jobRec) []span {
	at := func(t time.Time) time.Duration { return t.Sub(epoch) }
	st := j.st
	st.Submitted, st.Started, st.Finished = j.local(st.Submitted), j.local(st.Started), j.local(st.Finished)
	return []span{
		{Job: id, Name: "job", Start: at(j.due), End: at(j.recv)},
		{Job: id, Name: "admission", Parent: "job", Start: at(j.subStart), End: at(j.subEnd)},
		{Job: id, Name: "queue", Parent: "job", Start: at(st.Submitted), End: at(st.Started)},
		{Job: id, Name: "run", Parent: "job", Start: at(st.Started), End: at(st.Finished)},
		{Job: id, Name: "delivery", Parent: "job", Start: at(st.Finished), End: at(j.recv)},
	}
}

// recorder keeps spans in memory while a traced phase runs.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// record is a phase's onDone hook: it stores the finished job's spans.
func (r *recorder) record(j *jobRec) {
	if j.failed() {
		return
	}
	s := jobSpans(r.epoch, j.st.ID, j)
	r.mu.Lock()
	r.spans = append(r.spans, s...)
	r.mu.Unlock()
}

// byJob groups the recorded spans by job.
func (r *recorder) byJob() map[string][]span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string][]span{}
	for _, s := range r.spans {
		out[s.Job] = append(out[s.Job], s)
	}
	return out
}

// write stores the spans as JSON lines at path.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// spanStats summarises the recorded jobs: per child span the durations in
// ms, the children's summed durations and the job span's self time.
func (r *recorder) spanStats() (children map[string][]float64, sum, self []float64) {
	children = map[string][]float64{}
	for _, ss := range r.byJob() {
		var job span
		var kids []span
		total := time.Duration(0)
		for _, s := range ss {
			if s.Parent == "" {
				job = s
				continue
			}
			kids = append(kids, s)
			children[s.Name] = append(children[s.Name], ms(s.dur()))
			total += s.dur()
		}
		sum = append(sum, ms(total))
		self = append(self, ms(selfTime(job, kids)))
	}
	return children, sum, self
}

// utilSampler samples every pool's utilization while a traced phase runs.
type utilSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

// utilPeriod is how often the sampler reads Router.Metrics.
const utilPeriod = 5 * time.Millisecond

func sampleUtil(r *service.Router) *utilSampler {
	s := &utilSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(utilPeriod)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				for _, p := range r.Metrics().PerPool {
					s.samples = append(s.samples, p.Utilization)
				}
			}
		}
	}()
	return s
}

// finish stops the sampler and returns its samples.
func (s *utilSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	return s.samples
}
