// Command jasbench is the repository benchmark: it drives the
// characterization pipeline (report), a what-if grid (sweep) and the jasd
// service (serve) from outside the program, checks every output, and
// prints one JSON result line. Run it through run.sh from the repository
// root, which builds it and jasd:
//
//	bash jasbench/run.sh --workload report --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, measured by timing the
// calls this benchmark makes into each layer, and the spans are written
// to .bench_build/trace/. NOTES.md explains the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupReps is how many times a run performs its set-up; setup_s is the
// median, which keeps one slow repetition from moving the metric.
const setupReps = 3

// warmFor is how long every CPU spins before set-up starts.
const warmFor = 2 * time.Second

// seedsPerRun is how many config seeds one benchmark seed expands to. A
// simulation's cost moves between config seeds, so report and sweep
// spread every run over several; their medians then move far less from
// one benchmark seed to the next.
const seedsPerRun = 4

// configSeeds derives a run's config seeds from the benchmark seed:
// disjoint blocks, with benchmark seed 1 starting at config seed 1, the
// golden config.
func configSeeds(seed int64) []int64 {
	out := make([]int64, seedsPerRun)
	for k := range out {
		out[k] = seedsPerRun*(seed-1) + 1 + int64(k)
	}
	return out
}

// bench holds one run's arguments.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	root     string  // repository root: testdata and the jasd binary
	jasd     string  // path of the built jasd binary (serve only)
	tr       *tracer // nil = untraced run
}

// outcome is what one workload run measured.
type outcome struct {
	setups    []time.Duration
	ops       []time.Duration // timed ops (traced ops, on a traced run)
	untraced  []time.Duration // traced runs: the alternate ops run untraced
	attempted int
	failed    int
	failures  []string // the first few failure messages
	elapsed   time.Duration
	cpu       time.Duration // working process CPU over the timed phase
	alloc     uint64        // working process heap bytes allocated over it
	peakRSSMB float64
	layer     map[string]float64
	meta      map[string]any
}

// fail counts one failed op and keeps its message if there is room.
func (o *outcome) fail(err error) {
	o.failed++
	if len(o.failures) < 5 {
		o.failures = append(o.failures, err.Error())
	}
}

// record files an op's duration: with the timed samples, or on a traced
// run with the untraced ones when the op ran untraced.
func (o *outcome) record(d time.Duration, untraced bool) {
	o.attempted++
	if untraced {
		o.untraced = append(o.untraced, d)
		return
	}
	o.ops = append(o.ops, d)
}

// tracedOp reports whether, on a traced run, the op at position pos of
// cycle n runs traced. The side alternates along a cycle and flips from
// one cycle to the next, so over an even number of cycles every input is
// timed as often traced as untraced, and the difference of the two p50s
// is the tracing overhead rather than a cost difference between inputs.
func tracedOp(pos, n int) bool { return (pos+n)%2 == 0 }

// opTracer returns the tracer for the op at position pos of cycle n, nil
// when the op runs untraced.
func (b *bench) opTracer(pos, n int) *tracer {
	if tracedOp(pos, n) {
		return b.tr
	}
	return nil
}

// untracedOp reports whether an op is one of a traced run's untraced ops.
func (b *bench) untracedOp(pos, n int) bool { return b.tr != nil && !tracedOp(pos, n) }

// runCycles times whole cycles of a workload's inputs, passing each its
// cycle number: at least two, so every input recurs and is checked
// against its first result, and then as many as bring the timed phase
// nearest to b.seconds. Whole cycles keep the mix of inputs the same in
// every run; a traced run times an even number, so each input runs traced
// and untraced equally often. It returns the elapsed time.
func (b *bench) runCycles(cycle func(n int)) time.Duration {
	step := 1
	if b.tr != nil {
		step = 2
	}
	start := time.Now()
	for n := 1; ; n++ {
		cycle(n - 1)
		elapsed := time.Since(start)
		if n >= 2 && n%step == 0 && elapsed+elapsed*time.Duration(step)/time.Duration(2*n) > b.seconds {
			return elapsed
		}
	}
}

var workloads = map[string]func(*bench) (*outcome, error){
	"report": runReport,
	"sweep":  runSweep,
	"serve":  runServe,
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		wl      = flag.String("workload", "", "workload: report, sweep or serve")
		seed    = flag.Int64("seed", 1, "workload seed (1 is the golden config)")
		seconds = flag.Float64("seconds", 25, "length of the timed phase in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
		root    = flag.String("root", ".", "repository root")
		jasd    = flag.String("jasd", "", "jasd binary (serve workload)")
	)
	flag.Parse()
	for _, c := range []struct {
		defs  []metricDef
		limit int
	}{{endToEnd, maxEndToEnd}, {perLayer, maxPerLayer}} {
		if err := checkCatalog(c.defs, c.limit); err != nil {
			fmt.Fprintf(os.Stderr, "jasbench: metric catalog: %v\n", err)
			return 2
		}
	}
	fn, ok := workloads[*wl]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "jasbench: need --workload report|sweep|serve, --seconds > 0, --trace 0|1\n")
		return 2
	}
	if _, err := os.Stat(filepath.Join(*root, "testdata", "golden_report_quick.md")); err != nil {
		fmt.Fprintf(os.Stderr, "jasbench: %s is not the repository root: %v\n", *root, err)
		return 2
	}
	b := &bench{workload: *wl, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), root: *root, jasd: *jasd}
	if *trace == 1 {
		b.tr = newTracer()
	}

	stat0 := readCPUStat()
	warmed, spins := warmCPUs(warmFor)
	o, err := fn(b)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jasbench: %s: %v\n", *wl, err)
		return 1
	}
	metrics, err := b.metrics(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jasbench: %s: %v\n", *wl, err)
		return 1
	}
	if b.tr != nil {
		path, err := b.writeSpans()
		if err != nil {
			fmt.Fprintf(os.Stderr, "jasbench: writing spans: %v\n", err)
			return 1
		}
		o.meta["spans_file"] = path
	}

	meta := map[string]any{
		"workload":   *wl,
		"seed":       *seed,
		"seconds":    *seconds,
		"trace":      *trace,
		"host":       hostMeta(*root),
		"cpu_warmed": true,
		"cpu_warm_s": warmed.Seconds(),
		// Host speed: warm-up loop rounds per second per CPU, and the share
		// of CPU time the hypervisor stole during the run.
		"cpu_warm_mrounds_per_s": float64(spins) / warmed.Seconds() / float64(runtime.NumCPU()) / 1e6,
		"cpu_steal_pct":          readCPUStat().stealPct(stat0),
		"setup_reps_s":           durationsS(o.setups),
		"op_samples":             len(o.ops),
		"op_p90_beyond":          beyond(durationsMS(o.ops), 0.9),
		"failures":               o.failures,
		"workload_meta":          o.meta,
	}
	line, _ := json.Marshal(map[string]any{"jasbench_meta": meta})
	fmt.Println(string(line))

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.failed == 0 && o.attempted > 0, o.attempted, o.failed, map[string]value{}}
	for _, m := range metrics {
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, err = json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jasbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// metrics turns an outcome into the metric family the run prints.
func (b *bench) metrics(o *outcome) ([]metricValue, error) {
	if o.attempted == 0 {
		return nil, errors.New("no op completed in the timed phase")
	}
	var got []metricValue
	if b.tr == nil {
		opsMS := durationsMS(o.ops)
		opsN := float64(len(o.ops))
		vals := map[string]float64{
			"setup_s":     median(durationsS(o.setups)),
			"op_p50_ms":   median(opsMS),
			"op_p90_ms":   percentile(opsMS, 0.9),
			"ops_per_s":   opsN / o.elapsed.Seconds(),
			"op_cpu_ms":   float64(o.cpu) / float64(time.Millisecond) / opsN,
			"op_alloc_mb": float64(o.alloc) / (1 << 20) / opsN,
			"peak_rss_mb": o.peakRSSMB,
			"success_pct": 100 * float64(o.attempted-o.failed) / float64(o.attempted),
		}
		for _, d := range endToEnd {
			got = append(got, metricValue{d.Name, d.Unit, vals[d.Name]})
		}
	} else {
		spans := b.tr.snapshot()
		traced := median(durationsMS(o.ops))
		untraced := median(durationsMS(o.untraced))
		o.layer["trace.op_p50_ms"] = traced
		o.layer["trace.untraced_op_p50_ms"] = untraced
		o.layer["trace.overhead_ms"] = traced - untraced
		opSelf := layerSelfMS(spans, func(s span) bool { return s.Op > 0 && opLayers[s.layer()] })
		probeSelf := layerSelfMS(spans, func(s span) bool { return s.Op == 0 && !opLayers[s.layer()] })
		for l := range opLayers {
			o.layer[l+".self_ms"] = opSelf[l] / float64(len(o.ops))
		}
		for l, v := range probeSelf {
			if l != "probe" {
				o.layer[l+".self_ms"] = v
			}
		}
		for _, d := range perLayer {
			got = append(got, metricValue{d.Name, d.Unit, o.layer[d.Name]})
		}
		if extra := unknownKeys(o.layer); len(extra) > 0 {
			return nil, fmt.Errorf("per-layer values outside the catalog: %v", extra)
		}
	}
	for _, m := range got {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.Name, m.Value)
		}
	}
	return got, nil
}

// unknownKeys lists layer values no catalog entry names (a typo guard).
func unknownKeys(layer map[string]float64) []string {
	known := map[string]bool{}
	for _, d := range perLayer {
		known[d.Name] = true
	}
	var out []string
	for k := range layer {
		if !known[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

func durationsS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// writeSpans writes the traced run's spans as JSON under .bench_build/trace.
func (b *bench) writeSpans() (string, error) {
	dir := filepath.Join(b.root, ".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.json", b.workload, b.seed))
	data, err := json.Marshal(b.tr.snapshot())
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// totalAlloc is the cumulative heap bytes this process has allocated.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
