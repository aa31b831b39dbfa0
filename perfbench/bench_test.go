package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestQuantileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: quantile must sort
		}
		return xs
	}
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // ten samples beyond rank 990
		{999, 0.99, 990, false}, // nine beyond
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
		{1, 0.99, 1, false},
	}
	for _, c := range cases {
		got, ok := quantile(seq(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("quantile(n=%d, q=%g) = %g, %v; want %g, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	if v, ok := quantile(nil, 0.5); v != 0 || ok {
		t.Errorf("empty sample: %g, %v", v, ok)
	}
}

func TestLadderVerdict(t *testing.T) {
	good := probeVerdict{P99Ms: 19, Supported: true, BacklogHead: 1, BacklogTail: 1.5}
	if !good.passes(20) {
		t.Fatal("a rung within every limit fails")
	}
	for name, mutate := range map[string]func(*probeVerdict){
		"p99 over the limit": func(v *probeVerdict) { v.P99Ms = 20.5 },
		"p99 unsupported":    func(v *probeVerdict) { v.Supported = false },
		"a shed":             func(v *probeVerdict) { v.Sheds = 1 },
		"a failed job":       func(v *probeVerdict) { v.Failed = 1 },
		"growing backlog":    func(v *probeVerdict) { v.BacklogTail = 2.6 },
	} {
		v := good
		mutate(&v)
		if v.passes(20) {
			t.Errorf("%s passes", name)
		}
	}
}

func TestSearchLadder(t *testing.T) {
	const hi = 21
	for limit := 0; limit < hi; limit++ {
		best, probed := searchLadder(0, hi, func(k int) bool { return k <= limit })
		if best != limit {
			t.Errorf("limit rung %d: found %d", limit, best)
		}
		if len(probed) > int(math.Ceil(math.Log2(hi))) {
			t.Errorf("limit rung %d: %d probes %v", limit, len(probed), probed)
		}
	}
	if got := rungRate(500, 2); math.Abs(got-551.25) > 1e-9 {
		t.Errorf("rung 2 of 500/s is %g", got)
	}
}

func TestSelfTime(t *testing.T) {
	at := func(lo, hi int) span {
		return span{Start: time.Duration(lo), End: time.Duration(hi)}
	}
	parent := at(0, 100)
	cases := []struct {
		kids []span
		want time.Duration
	}{
		{nil, 100},
		// Overlaps count once; parts outside the parent do not count.
		{[]span{at(10, 30), at(20, 40), at(50, 60), at(90, 120)}, 50},
		{[]span{at(-20, -10), at(100, 130)}, 100},
		{[]span{at(0, 100), at(40, 60)}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.kids); got != c.want {
			t.Errorf("selfTime(%v) = %d, want %d", c.kids, got, c.want)
		}
	}
}

func TestJobSpansAccountForLatency(t *testing.T) {
	epoch := time.Unix(1000, 0)
	ms := func(n int) time.Time { return epoch.Add(time.Duration(n) * time.Millisecond) }
	j := &jobRec{due: ms(0), subStart: ms(1), subEnd: ms(3), recv: ms(20)}
	j.st.Submitted, j.st.Started, j.st.Finished = ms(2), ms(5), ms(18)
	spans := jobSpans(epoch, "job-1", j)
	if spans[0].Name != "job" || spans[0].dur() != j.latency() {
		t.Fatalf("job span %+v does not cover the latency %v", spans[0], j.latency())
	}
	// Submitted sits in the middle of the Submit call, so the children
	// cover 1 → 20 ms; the generator's 1 ms delay is the job's own time.
	if got := selfTime(spans[0], spans[1:]); got != time.Millisecond {
		t.Errorf("job self time %v, want 1ms", got)
	}
	// Shifted by a service clock 7 ms ahead, the spans stay where they were.
	k := *j
	k.st.Submitted, k.st.Started, k.st.Finished = ms(9), ms(12), ms(25)
	if got := jobSpans(epoch, "job-1", &k); !reflect.DeepEqual(got, spans) {
		t.Errorf("offset service clock moved the spans:\n%v\n%v", got, spans)
	}
}

func TestLayerSelfArithmetic(t *testing.T) {
	r := rungs{domain: "sudoku", rollouts: 1000, stepsPerPl: 4, coreNsPerPl: 500,
		wallMs: 1.5, routerMs: 1.8}
	got := r.self(map[string]domainCost{"sudoku": {PlayUndoNs: 100, LegalNs: 40}})
	// domain: 100 ns/step × 4 steps × 1000 rollouts = 0.4 ms;
	// core: 500 ns × 1000 = 0.5 ms, of which 0.1 ms is its own.
	want := layerSelf{domain: 0.4, core: 0.1, parallel: 1.0, service: 0.3}
	for i, pair := range [][2]float64{{got.domain, want.domain}, {got.core, want.core},
		{got.parallel, want.parallel}, {got.service, want.service}} {
		if math.Abs(pair[0]-pair[1]) > 1e-9 {
			t.Errorf("layer %d: %g, want %g", i, pair[0], pair[1])
		}
	}
}

func TestJobStreamIsAPureFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a := w.jobs(7, streamNominal, 300)
		if b := w.jobs(7, streamNominal, 300); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different streams", w.name)
		}
		if b := w.jobs(8, streamNominal, 300); reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w.name)
		}
		if b := w.jobs(7, streamOverload, 300); reflect.DeepEqual(a, b) {
			t.Errorf("%s: two phases share a stream", w.name)
		}
		domains := map[string]int{}
		for _, spec := range a {
			if _, err := spec.Config(); err != nil {
				t.Fatalf("%s: invalid job %+v: %v", w.name, spec, err)
			}
			if spec.Seed == 0 {
				t.Fatalf("%s: job without a seed", w.name)
			}
			domains[spec.Domain]++
		}
		if w.openLoop && (domains["sudoku"] < 170 || domains["samegame"] < 70) {
			t.Errorf("%s: mix %v is not about two thirds sudoku", w.name, domains)
		}
	}
}

// TestDeclaredMetrics pins the metric names the result line carries to the
// names BENCHMARK.json declares.
func TestDeclaredMetrics(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
		Workload []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(blob, &decl); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	if got := names(decl.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end %v, program %v", got, endToEnd)
	}
	if got := names(decl.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer %v, program %v", got, perLayer)
	}
	for _, name := range names(decl.Workload) {
		if _, ok := workloadByName(name); !ok {
			t.Errorf("workload %s is not in the program", name)
		}
	}
}
