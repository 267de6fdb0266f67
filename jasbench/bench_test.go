package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"jasworkload/internal/core"
	"jasworkload/internal/sim"
)

func TestCatalogsValid(t *testing.T) {
	if err := checkCatalog(endToEnd, maxEndToEnd); err != nil {
		t.Errorf("end-to-end: %v", err)
	}
	if err := checkCatalog(perLayer, maxPerLayer); err != nil {
		t.Errorf("per-layer: %v", err)
	}
	hasSetup := false
	for _, d := range endToEnd {
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
			for _, e := range endToEnd {
				if e.Bound > d.Bound {
					t.Errorf("setup_s bound %v is not the largest (%s has %v)", d.Bound, e.Name, e.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower better")
	}
}

func TestCheckCatalogRejects(t *testing.T) {
	ok := metricDef{Name: "a.b_c-1", Unit: "ms"}
	many := make([]metricDef, maxEndToEnd+1)
	for i := range many {
		many[i] = metricDef{Name: "m" + strings.Repeat("x", i), Unit: "ms"}
	}
	for name, defs := range map[string][]metricDef{
		"space":      {{Name: "op p50", Unit: "ms"}},
		"slash":      {{Name: "op/p50", Unit: "ms"}},
		"leading _":  {{Name: "_op", Unit: "ms"}},
		"65 chars":   {{Name: strings.Repeat("a", 65), Unit: "ms"}},
		"empty":      {{Name: "", Unit: "ms"}},
		"unit chars": {{Name: "x", Unit: "m s"}},
		"unit long":  {{Name: "x", Unit: strings.Repeat("u", 17)}},
		"duplicate":  {ok, ok},
		"none":       {},
		"over limit": many,
	} {
		if err := checkCatalog(defs, maxEndToEnd); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := checkCatalog([]metricDef{ok, {Name: strings.Repeat("a", 64), Unit: "1/s"}}, maxEndToEnd); err != nil {
		t.Errorf("valid catalog rejected: %v", err)
	}
	if err := checkCatalog(many[:maxEndToEnd], maxEndToEnd); err != nil {
		t.Errorf("catalog at the limit rejected: %v", err)
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json and the metrics the
// benchmark prints in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the benchmark has %d", names, len(workloads))
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.5, 5.5}, {0.9, 9.1}, {1, 10}, {0.25, 3.25},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 10 || xs[1] != 1 {
		t.Error("percentile sorted its input in place")
	}
	if got := median([]float64{4}); got != 4 {
		t.Errorf("median of one = %v", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %v", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing is not NaN")
	}
	// p90 of 1..100 is 90.1: ten samples lie beyond it, the fewest a
	// reported tail percentile may rest on.
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if n := beyond(hundred, 0.9); n != 10 {
		t.Errorf("beyond(p90 of 1..100) = %d, want 10", n)
	}
	if n := beyond(xs, 0.9); n != 1 {
		t.Errorf("beyond(p90 of 10 samples) = %d, want 1", n)
	}
}

func TestConfigSeeds(t *testing.T) {
	if got := configSeeds(1); got[0] != 1 || len(got) != seedsPerRun {
		t.Errorf("configSeeds(1) = %v, want %d seeds from the golden seed 1", got, seedsPerRun)
	}
	seen := map[int64]int64{}
	for seed := int64(1); seed <= 20; seed++ {
		for _, s := range configSeeds(seed) {
			if prev, ok := seen[s]; ok {
				t.Fatalf("config seed %d used by benchmark seeds %d and %d", s, prev, seed)
			}
			seen[s] = seed
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op.report", Start: 0, End: 100},
		// Overlapping concurrent legs cover [10, 50] once, not twice.
		{ID: 2, Parent: 1, Name: "core.request_level", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "core.detail", Start: 20, End: 50},
		// A child outliving its parent only covers the parent's part.
		{ID: 4, Parent: 1, Name: "core.render", Start: 90, End: 120},
		// A grandchild reduces its parent's self time, not the root's.
		{ID: 5, Parent: 3, Name: "db.script.jas2004", Start: 25, End: 35},
		{ID: 6, Name: "probe.report", Start: 200, End: 260},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 100 - 40 - 10, 2: 20, 3: 30 - 10, 4: 30, 5: 10, 6: 60} {
		if self[id] != want {
			t.Errorf("span %d self = %d, want %d", id, self[id], want)
		}
	}
	byLayer := layerSelfMS(spans, func(span) bool { return true })
	want := map[string]float64{"op": 50e-6, "core": 70e-6, "db": 10e-6, "probe": 60e-6}
	var got []string
	for l := range byLayer {
		got = append(got, l)
	}
	sort.Strings(got)
	if len(byLayer) != len(want) {
		t.Fatalf("layers %v, want %v", got, want)
	}
	for l, w := range want {
		if math.Abs(byLayer[l]-w) > 1e-15 {
			t.Errorf("layer %s self = %v ms, want %v ms", l, byLayer[l], w)
		}
	}
	if got := covered(0, 10, nil); got != 0 {
		t.Errorf("covered with no children = %d", got)
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *tracer
	id := tr.begin("op.x", 0, 1)
	tr.end(id)
	if id != 0 || tr.snapshot() != nil {
		t.Error("nil tracer recorded a span")
	}
	tr = newTracer()
	root := tr.begin("op.x", 0, 1)
	child := tr.begin("core.y", root, 1)
	tr.end(child)
	tr.end(root)
	s := tr.snapshot()
	if len(s) != 2 || s[1].Parent != root || s[0].End < s[1].End || s[1].layer() != "core" {
		t.Errorf("spans %+v", s)
	}
}

func TestCheckReportRejectsCorruptReference(t *testing.T) {
	golden, err := os.ReadFile("../testdata/golden_report_quick.md")
	if err != nil {
		t.Fatal(err)
	}
	want := string(golden)
	if err := checkReport(want, want); err != nil {
		t.Fatalf("identical report rejected: %v", err)
	}
	corrupt := strings.Replace(want, "yes", "no", 1)
	if err := checkReport(want, corrupt); err == nil || !strings.Contains(err.Error(), "line") {
		t.Errorf("corrupted reference accepted (err %v)", err)
	}
	if err := checkReport(want, want+"extra\n"); err == nil {
		t.Error("longer reference accepted")
	}
}

func TestCheckCellRejectsCorruptReference(t *testing.T) {
	cell := core.Cell{Index: 3, Label: "workload=virtweb heap_mb=256"}
	refs := map[int]string{}
	if err := checkCell(refs, cell, "fig3=a jops=1"); err != nil {
		t.Fatalf("first sight: %v", err)
	}
	if err := checkCell(refs, cell, "fig3=a jops=1"); err != nil {
		t.Errorf("same result rejected: %v", err)
	}
	refs[cell.Index] = "fig3=a jops=2"
	if err := checkCell(refs, cell, "fig3=a jops=1"); err == nil {
		t.Error("corrupted reference accepted")
	}
}

func TestCheckSims(t *testing.T) {
	before := map[string]int{"request-level": 4, "detail": 1}
	one := map[string]int{"request-level": 1}
	if err := checkSims(before, map[string]int{"request-level": 5, "detail": 1}, one); err != nil {
		t.Errorf("one request-level sim rejected: %v", err)
	}
	for name, after := range map[string]map[string]int{
		"shared":   {"request-level": 4, "detail": 1},
		"detail":   {"request-level": 5, "detail": 2},
		"variants": {"request-level": 5, "detail": 1, "variant": 2},
	} {
		if err := checkSims(before, after, one); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckResponseRejectsCorruptReference(t *testing.T) {
	j := &serveJob{pack: "jas2004"}
	body := []byte(`{"rows":[1,2,3]}`)
	if err := checkResponse("report", j, 200, body, body, nil); err != nil {
		t.Fatalf("identical body rejected: %v", err)
	}
	if err := checkResponse("report", j, 200, body, []byte(`{"rows":[1,2,4]}`), nil); err == nil {
		t.Error("corrupted reference accepted")
	}
	if err := checkResponse("report", j, 202, body, body, nil); err == nil {
		t.Error("non-200 status accepted")
	}
	metrics := []byte("# HELP x\njasd_sims_total{kind=\"detail\"} 3\njasd_http_requests_total 99\n")
	sims := map[string]float64{`jasd_sims_total{kind="detail"}`: 3}
	if err := checkResponse("metrics", nil, 200, metrics, nil, sims); err != nil {
		t.Errorf("flat sims rejected: %v", err)
	}
	sims[`jasd_sims_total{kind="detail"}`] = 2
	if err := checkResponse("metrics", nil, 200, metrics, nil, sims); err == nil {
		t.Error("a simulation during the timed phase was accepted")
	}
	status := []byte(`{"id":"a1","state":"done","clients":1,"running_sec":0.5}`)
	if err := checkResponse("status", j, 200, []byte(`{"id":"a1","state":"done","clients":3,"running_sec":0.5}`), status, nil); err != nil {
		t.Errorf("status with concurrent resubmits rejected: %v", err)
	}
	if err := checkResponse("status", j, 200, []byte(`{"id":"a1","state":"done","clients":1,"running_sec":0.7}`), status, nil); err == nil {
		t.Error("status differing beyond the client count accepted")
	}
	if _, err := parseMetrics([]byte("novalue\n")); err == nil {
		t.Error("malformed metrics line accepted")
	}
}

// refsFor gives every request of job j a reference body, with the
// status and stream bodies set apart by tag.
func refsFor(j *serveJob, tag string) *serveJob {
	j.refs = map[string][]byte{}
	for _, op := range j.requests() {
		j.refs[op.key()] = []byte(op.key())
		if op.kind == "status" || op.kind == "stream" {
			j.refs[op.key()] = []byte(tag)
		}
	}
	return j
}

func TestSameRefsIgnoresOnlyVolatileBodies(t *testing.T) {
	a := []*serveJob{refsFor(&serveJob{pack: "jas2004", id: "a1"}, "x")}
	b := []*serveJob{refsFor(&serveJob{pack: "jas2004", id: "a1"}, "y")}
	if err := sameRefs(a, b); err != nil {
		t.Errorf("volatile bodies compared: %v", err)
	}
	b[0].refs["GET /v1/runs/a1/report?wait=1&format=md"] = []byte("R")
	if err := sameRefs(a, b); err == nil {
		t.Error("differing report accepted")
	}
	if err := sameRefs(a, []*serveJob{refsFor(&serveJob{pack: "jas2004", id: "b2"}, "x")}); err == nil {
		t.Error("a job with another ID accepted")
	}
}

func TestSessionRequestsHaveReferences(t *testing.T) {
	j := &serveJob{pack: "jas2004", id: "a1", spec: []byte(`{}`)}
	reqs := j.requests()
	// submit, status, stream, report, vmstat as text and each figure as JSON.
	if want := 5 + len(serveFigures); len(reqs) != want {
		t.Errorf("%d distinct requests, want %d", len(reqs), want)
	}
	keys := map[string]bool{}
	for _, op := range reqs {
		keys[op.key()] = true
	}
	kinds := map[string]bool{}
	for _, fig := range serveFigures {
		for _, op := range session(j, fig) {
			kinds[op.kind] = true
			if op.kind != "metrics" && !keys[op.key()] {
				t.Errorf("session request %s has no reference", op.key())
			}
		}
	}
	for _, k := range serveKinds {
		if !kinds[k] {
			t.Errorf("sessions never send a %s request", k)
		}
	}
}

func TestSameWindowsRejectsCorruptReference(t *testing.T) {
	w := []sim.WindowStats{{Index: 0, Completions: []int{1, 2}, UtilBusy: 0.5}}
	if err := sameWindows("rl", w, []sim.WindowStats{{Index: 0, Completions: []int{1, 2}, UtilBusy: 0.5}}); err != nil {
		t.Errorf("equal windows rejected: %v", err)
	}
	if err := sameWindows("rl", w, []sim.WindowStats{{Index: 0, Completions: []int{1, 3}, UtilBusy: 0.5}}); err == nil {
		t.Error("corrupted windows accepted")
	}
}

func TestUnknownLayerKeys(t *testing.T) {
	if got := unknownKeys(map[string]float64{"db.wal_records": 1, "db.wal_recs": 2}); len(got) != 1 || got[0] != "db.wal_recs" {
		t.Errorf("unknownKeys = %v", got)
	}
}

func TestRunCyclesWholeAndAtLeastTwo(t *testing.T) {
	count := func(b *bench) int {
		n := 0
		b.runCycles(func(i int) {
			if i != n {
				t.Errorf("cycle %d numbered %d", n, i)
			}
			n++
			time.Sleep(10 * time.Millisecond)
		})
		return n
	}
	if n := count(&bench{}); n != 2 {
		t.Errorf("zero seconds ran %d cycles, want the minimum of 2", n)
	}
	// 100 ms of 10 ms cycles is ten; allow for sleep overshoot.
	if n := count(&bench{seconds: 100 * time.Millisecond}); n < 8 || n > 11 {
		t.Errorf("100 ms of 10 ms cycles ran %d cycles, want about 10", n)
	}
	for _, seconds := range []time.Duration{0, 35 * time.Millisecond, 75 * time.Millisecond} {
		if n := count(&bench{seconds: seconds, tr: newTracer()}); n%2 != 0 {
			t.Errorf("traced run of %v ran %d cycles, want an even number", seconds, n)
		}
	}
}

// Over two cycles every input of a cycle, whatever the cycle's length,
// runs once traced and once untraced, so the traced and untraced p50s time the same
// inputs.
func TestTracedOpCoversEveryInputBothSides(t *testing.T) {
	b := &bench{tr: newTracer()}
	for pos := 0; pos < 90; pos++ {
		traced := 0
		for n := 0; n < 2; n++ {
			if b.untracedOp(pos, n) == (b.opTracer(pos, n) != nil) {
				t.Fatalf("input %d, cycle %d: traced and untraced disagree", pos, n)
			}
			if b.opTracer(pos, n) != nil {
				traced++
			}
		}
		if traced != 1 {
			t.Errorf("input %d traced %d times in two cycles, want 1", pos, traced)
		}
	}
	if (&bench{}).untracedOp(1, 0) {
		t.Error("an untraced run reported an untraced op")
	}
}
