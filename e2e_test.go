package jasworkload

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"jasworkload/internal/service"
)

// goldenQuick is the pinned quick-scale seed-1 markdown report.
const goldenQuick = "testdata/golden_report_quick.md"

// TestE2E drives the real binaries end to end: jasd on a kernel-picked
// port, jasctl as its client, and jasrun standalone. Each row boots its
// own daemons and checks the invariants the in-process tests cannot see:
// served bytes equal to the golden, simulation counts read off /metrics,
// crash durability, and a clean SIGTERM drain. Run one row with
// `go test -run '^TestE2E$/^store$' .`.
func TestE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("real-daemon rows skipped in -short mode")
	}
	b := buildE2E(t)
	for _, row := range []struct {
		name string
		run  func(*testing.T, e2eBins)
	}{
		{"service", e2eService},
		{"sweep", e2eSweep},
		{"loadgen", e2eLoadgen},
		{"store", e2eStore},
		{"shard", e2eShard},
	} {
		t.Run(row.name, func(t *testing.T) { row.run(t, b) })
	}
}

// e2eService serves the golden run, cancels an in-flight run, watches
// the done-ring TTL return the resident gauges to their empty baseline,
// and drains on SIGTERM.
func e2eService(t *testing.T, b e2eBins) {
	// -done-ttl is short so the retention checks can watch eviction.
	d := b.start(t, "-workers", "2", "-done-ttl", "2s")
	sameBytes(t, "served report", goldenQuick,
		d.ctl(t, "submit", "-scale", "quick", "-seed", "1", "-wait", "-format", "md"), readFile(t, goldenQuick))
	m := d.metrics(t)
	mustSeries(t, m, map[string]float64{`jasd_jobs_total{state="done"}`: 1, "jasd_queue_depth": 0})
	if _, ok := m["jasd_jops"]; !ok {
		t.Error("/metrics: series jasd_jops missing")
	}

	// A run far too long to finish is cancelled once it streams windows:
	// it retires as canceled, with no report, and the cancel is counted.
	id := d.submit(t, "-scale", "quick", "-seed", "2", "-duration-ms", "600000").ID
	eventually(t, func() error {
		if st := d.status(t, id); st.WindowsSoFar == 0 {
			return fmt.Errorf("job %s streamed no windows", id)
		}
		return nil
	})
	d.ctl(t, "cancel", id)
	eventually(t, func() error {
		if st := d.status(t, id); st.State != service.StateCanceled {
			return fmt.Errorf("cancelled job %s is %s", id, st.State)
		}
		return nil
	})
	mustSeries(t, d.metrics(t), map[string]float64{"jasd_jobs_cancelled_total": 1})

	// Once the TTL passes, both jobs are evicted and the RSS-proxy gauges
	// fall back to zero; the evicted ID no longer answers status.
	eventually(t, func() error {
		return checkSeries(d.metrics(t), map[string]float64{
			"jasd_resident_jobs": 0, "jasd_hub_bytes": 0, "jasd_jobs_evicted_total": 2,
		})
	})
	mustFail(t, "410 Gone", b.jasctl, "-addr", d.url, "status", id)
	d.stop(t)
}

// e2eSweep runs a 12-cell grid whose cells differ only in detail-only
// knobs: the whole grid must cost ONE request-level simulation while each
// cell still gets its own detail run and row.
func e2eSweep(t *testing.T, b e2eBins) {
	d := b.start(t, "-workers", "4")
	// 2 page sizes x 6 detail fractions: the quick heap is a 16 MB
	// multiple, so all 12 cells map to one RequestKey.
	grid := writeFile(t, "grid.json", `{
  "base": {"scale": "quick", "seed": 7, "duration_ms": 8000, "ramp_ms": 2000},
  "axes": [
    {"param": "heap_page", "values": ["4K", "16M"]},
    {"param": "detail_frac", "values": [0.01, 0.02, 0.03, 0.04, 0.05, 0.06]}
  ]
}`)
	out, stderr := run(t, b.jasctl, "-addr", d.url, "sweep", "-grid", grid, "-table")

	var rows, tableRows int
	var terminal service.State
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "| ") && len(line) > 2 && line[2] >= '0' && line[2] <= '9' {
			tableRows++
		}
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var ev struct {
			JobID string        `json:"job_id"`
			State service.State `json:"state"`
			Done  bool          `json:"done"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("sweep stream line %q: %v", line, err)
		}
		switch {
		case ev.Done:
			terminal = ev.State
		case ev.State == service.StateFailed:
			t.Errorf("sweep cell job %s failed", ev.JobID)
		case ev.JobID != "":
			rows++
		}
	}
	if rows != 12 || tableRows != 12 || terminal != service.StateDone {
		t.Fatalf("sweep: %d rows, %d table rows, terminal state %q; want 12, 12, done\n%s", rows, tableRows, terminal, out)
	}

	mustSeries(t, d.metrics(t), map[string]float64{
		`jasd_sims_total{kind="request-level"}`: 1,
		`jasd_sims_total{kind="detail"}`:        12,
		"jasd_request_cache_misses_total":       1,
		"jasd_request_cache_hits_total":         11,
		`jasd_sweeps_total{state="done"}`:       1,
		"jasd_sweep_cells_total":                12,
	})

	// The sweep's status reports the sharing arithmetic directly.
	id, _, _ := strings.Cut(strings.TrimPrefix(string(stderr), "jasctl: sweep "), " ")
	if !strings.HasPrefix(id, "sw") {
		t.Fatalf("no sweep id announced on jasctl's stderr:\n%s", stderr)
	}
	var st service.SweepStatus
	decode(t, "sweep status "+id, d.ctl(t, "sweep", "status", id), &st)
	if st.Cells != 12 || st.DistinctRequestKeys != 1 || st.State != service.StateDone {
		t.Errorf("sweep %s status: cells=%d distinct_request_keys=%d state=%s; want 12, 1, done",
			id, st.Cells, st.DistinctRequestKeys, st.State)
	}

	// A grid over the cell cap is rejected up front.
	big := writeFile(t, "big.json", `{"base": {"scale": "quick"}, "axes": [
  {"param": "seed", "values": [1,2,3,4,5,6,7,8,9]},
  {"param": "ir", "values": [10,20,30,40,50,60,70,80]}]}`)
	mustFail(t, "more than 64 cells", b.jasctl, "-addr", d.url, "sweep", "-grid", big, "-tail=false")
	d.stop(t)
}

// e2eLoadgen records a ramp arrival trace standalone, then serves the
// steady, ramp-spec and trace-replay shapes: three distinct jobs, and the
// replay's report byte-identical to the generating run's.
func e2eLoadgen(t *testing.T, b e2eBins) {
	ramp := writeFile(t, "ramp.json", `{"version":1,"cohorts":[{"name":"rampers","process":`+
		`{"kind":"ramp","start_factor":0.5,"target_factor":1.5,"steps":4,"step_ms":2000}}]}`)
	dir := filepath.Dir(ramp)
	base := []string{"-scale", "quick", "-seed", "7", "-duration-ms", "8000", "-ramp-ms", "2000"}
	record := func(name string, src ...string) string {
		path := filepath.Join(dir, name)
		run(t, b.jasrun, append(append(base, src...), "-record-trace", path, "-trace-only")...)
		return path
	}
	// The same spec and seed record byte-identical traces.
	trace := record("ramp.trace", "-arrival", ramp)
	sameFile(t, record("ramp2.trace", "-arrival", ramp), trace)

	d := b.start(t, "-workers", "4")
	steady := d.submit(t, base...).ID
	rampID := d.submit(t, append(base, "-arrival", ramp)...).ID
	replay := d.submit(t, append(base, "-replay-trace", trace)...).ID
	// The arrival spec is part of the canonical config and the job ID.
	if steady == rampID || steady == replay || rampID == replay {
		t.Fatalf("load shapes coalesced: steady=%s ramp=%s replay=%s", steady, rampID, replay)
	}
	if again := d.submit(t, append(base, "-replay-trace", trace)...).ID; again != replay {
		t.Errorf("resubmitted trace got job %s, want %s", again, replay)
	}

	// Markdown carries no job identity, and the trace replays exactly the
	// arrivals the spec generated; a second fetch is byte-stable too.
	report := func(id string) []byte { return d.ctl(t, "report", "-wait", "-format", "md", id) }
	replayMD := report(replay)
	sameBytes(t, "replay report "+replay, "ramp report "+rampID, replayMD, report(rampID))
	sameBytes(t, "replay report refetch", "first fetch", report(replay), replayMD)

	for id, want := range map[string]string{rampID: "1 cohort (ramp)", replay: "trace (8 windows)"} {
		if got := d.status(t, id).Arrival; got != want {
			t.Errorf("job %s arrival = %q, want %q", id, got, want)
		}
	}

	// A spec naming a class the pack does not have is a 400, not a job.
	bad := writeFile(t, "bad.json", `{"version":1,"cohorts":[{"name":"a","mix":{"Checkout":2}}]}`)
	mustFail(t, "unknown class", b.jasctl, "-addr", d.url, "submit", "-scale", "quick", "-arrival", bad)

	// record -> replay -> re-record reproduces the trace byte for byte.
	sameFile(t, record("reramp.trace", "-replay-trace", trace), trace)
	d.stop(t)
}

// e2eStore checks the persistent store twice over: a daemon killed with
// SIGKILL restarts on its store and re-serves the golden run with zero
// simulations, and two replicas sharing one store cost one simulation
// per fidelity in total.
func e2eStore(t *testing.T, b e2eBins) {
	golden := readFile(t, goldenQuick)
	submit := func(d *daemon, seed string) []byte {
		return d.ctl(t, "submit", "-scale", "quick", "-seed", seed, "-wait", "-format", "md")
	}

	store := t.TempDir()
	d := b.start(t, "-store-dir", store)
	sameBytes(t, "stored report", goldenQuick, submit(d, "1"), golden)
	mustSeries(t, d.metrics(t), map[string]float64{
		`jasd_sims_total{kind="request-level"}`: 1, `jasd_sims_total{kind="detail"}`: 1,
	})
	// No drain, no flush: entries were written atomically as each artifact
	// finished, so durability must not depend on a clean shutdown.
	d.kill()

	d = b.start(t, "-store-dir", store)
	sameBytes(t, "post-restart report", goldenQuick, submit(d, "1"), golden)
	m := d.metrics(t)
	mustSeries(t, m, map[string]float64{
		`jasd_sims_total{kind="request-level"}`: 0,
		`jasd_sims_total{kind="detail"}`:        0,
		`jasd_sims_total{kind="variant"}`:       0,
	})
	if hits := m[`jasd_store_hits_total{kind="request-level"}`]; hits < 1 {
		t.Errorf(`/metrics: jasd_store_hits_total{kind="request-level"} = %v, want >= 1`, hits)
	}
	d.stop(t)

	shared := t.TempDir()
	ra, rb := b.start(t, "-store-dir", shared), b.start(t, "-store-dir", shared)
	sameBytes(t, "replica B report", "replica A report", submit(rb, "3"), submit(ra, "3"))
	ma, mb := ra.metrics(t), rb.metrics(t)
	for _, s := range []string{`jasd_sims_total{kind="request-level"}`, `jasd_sims_total{kind="detail"}`} {
		if total := ma[s] + mb[s]; total != 1 {
			t.Errorf("/metrics: %s summed over two replicas = %v, want 1", s, total)
		}
	}
	ra.stop(t)
	rb.stop(t)
}

// e2eShard checks the standalone report against the golden and the
// shard observability series: the gauge, and one merge-stall series per
// shard it advertises (a 1-CPU host advertises 0 and may expose none).
func e2eShard(t *testing.T, b e2eBins) {
	out, _ := run(t, b.jasrun, "-scale", "quick", "-markdown")
	sameBytes(t, "jasrun -markdown", goldenQuick, out, readFile(t, goldenQuick))

	d := b.start(t)
	m := d.metrics(t)
	shards, ok := m["jasd_detail_shards"]
	if !ok {
		t.Fatal("/metrics: series jasd_detail_shards missing")
	}
	stalls := 0
	for s := range m {
		if strings.HasPrefix(s, "jasd_shard_merge_stalls_total{") {
			stalls++
		}
	}
	if float64(stalls) < shards {
		t.Errorf("/metrics: jasd_detail_shards = %v but only %d jasd_shard_merge_stalls_total series", shards, stalls)
	}
	d.stop(t)
}

// e2eBins are the binaries TestE2E builds once per run.
type e2eBins struct{ jasd, jasctl, jasrun string }

func buildE2E(t *testing.T) e2eBins {
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir, "./cmd/jasd", "./cmd/jasctl", "./cmd/jasrun")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// go test caches a result by the files the test itself touched; stat
	// the command sources so editing one of them re-runs the rows.
	srcs, _ := filepath.Glob("cmd/jas*/*.go")
	for _, src := range srcs {
		os.Stat(src)
	}
	return e2eBins{filepath.Join(dir, "jasd"), filepath.Join(dir, "jasctl"), filepath.Join(dir, "jasrun")}
}

// daemon is one running jasd.
type daemon struct {
	b    e2eBins
	url  string // base URL, http://127.0.0.1:PORT
	log  string // path of the daemon's stderr
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has exited
	err  error         // exit status, valid after done
}

// start boots jasd on 127.0.0.1:0 with the given extra flags and waits
// for the address it writes to -addrfile. The test's cleanup kills it if
// the row did not stop it.
func (b e2eBins) start(t *testing.T, args ...string) *daemon {
	t.Helper()
	dir := t.TempDir()
	addrfile := filepath.Join(dir, "addr")
	d := &daemon{b: b, log: filepath.Join(dir, "jasd.log"), done: make(chan struct{})}
	logf, err := os.Create(d.log)
	if err != nil {
		t.Fatal(err)
	}
	defer logf.Close()
	d.cmd = exec.Command(b.jasd, append([]string{"-addr", "127.0.0.1:0", "-addrfile", addrfile}, args...)...)
	d.cmd.Stderr = logf
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { d.err = d.cmd.Wait(); close(d.done) }()
	t.Cleanup(d.kill)

	deadline := time.Now().Add(10 * time.Second)
	for {
		// jasd writes "host:port\n" in one call; the newline marks it whole.
		if a, err := os.ReadFile(addrfile); err == nil && bytes.HasSuffix(a, []byte("\n")) {
			d.url = "http://" + strings.TrimSpace(string(a))
			return d
		}
		select {
		case <-d.done:
			t.Fatalf("jasd %v exited before listening (%v):\n%s", args, d.err, readFile(t, d.log))
		case <-time.After(50 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("jasd %v wrote no address to %s within 10s:\n%s", args, addrfile, readFile(t, d.log))
		}
	}
}

// stop sends SIGTERM and requires a clean exit and drain.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	d.cmd.Process.Signal(syscall.SIGTERM)
	<-d.done
	log := readFile(t, d.log)
	if d.err != nil || !bytes.Contains(log, []byte("drained cleanly")) {
		t.Fatalf("jasd after SIGTERM: exit %v, want 0 and \"drained cleanly\" in %s:\n%s", d.err, d.log, log)
	}
}

// kill stops the daemon with SIGKILL: no drain, no flush.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
}

// ctl runs jasctl against the daemon and returns its stdout.
func (d *daemon) ctl(t *testing.T, args ...string) []byte {
	t.Helper()
	out, _ := run(t, d.b.jasctl, append([]string{"-addr", d.url}, args...)...)
	return out
}

// submit posts a run without waiting and returns the job status jasctl
// prints.
func (d *daemon) submit(t *testing.T, args ...string) service.JobStatus {
	t.Helper()
	var st service.JobStatus
	decode(t, "submit response", d.ctl(t, append([]string{"submit"}, args...)...), &st)
	if st.ID == "" {
		t.Fatalf("submit %v: no job id", args)
	}
	return st
}

func (d *daemon) status(t *testing.T, id string) service.JobStatus {
	t.Helper()
	var st service.JobStatus
	decode(t, "status "+id, d.ctl(t, "status", id), &st)
	return st
}

// metrics scrapes /metrics through jasctl.
func (d *daemon) metrics(t *testing.T) map[string]float64 {
	t.Helper()
	m, err := parseMetrics(string(d.ctl(t, "metrics")))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// parseMetrics parses Prometheus text exposition into series -> value. A
// series is the metric name with its label set verbatim, as in
// `jasd_sims_total{kind="detail"}`; comment and blank lines are skipped.
func parseMetrics(text string) (map[string]float64, error) {
	m := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("/metrics line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %v", line, err)
		}
		m[line[:i]] = v
	}
	return m, nil
}

// checkSeries compares every wanted series against a scrape; each
// mismatch names its series.
func checkSeries(m, want map[string]float64) error {
	names := make([]string, 0, len(want))
	for s := range want {
		names = append(names, s)
	}
	sort.Strings(names)
	var errs []error
	for _, s := range names {
		if got, ok := m[s]; !ok {
			errs = append(errs, fmt.Errorf("/metrics: series %s missing", s))
		} else if got != want[s] {
			errs = append(errs, fmt.Errorf("/metrics: %s = %v, want %v", s, got, want[s]))
		}
	}
	return errors.Join(errs...)
}

func mustSeries(t *testing.T, m, want map[string]float64) {
	t.Helper()
	if err := checkSeries(m, want); err != nil {
		t.Error(err)
	}
}

// eventually polls check until it returns nil, failing with its last
// error after 30s.
func eventually(t *testing.T, check func() error) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		err := check()
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("still failing after 30s: %v", err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// run executes a binary and returns its stdout and stderr; a non-zero
// exit fails the test with both.
func run(t *testing.T, bin string, args ...string) (stdout, stderr []byte) {
	t.Helper()
	var o, e bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &o, &e
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %s: %v\n%s%s", filepath.Base(bin), strings.Join(args, " "), err, o.Bytes(), e.Bytes())
	}
	return o.Bytes(), e.Bytes()
}

// mustFail requires a binary to exit non-zero with msg in its output.
func mustFail(t *testing.T, msg, bin string, args ...string) {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err == nil || !bytes.Contains(out, []byte(msg)) {
		t.Errorf("%s %s: exit %v, want a failure mentioning %q:\n%s",
			filepath.Base(bin), strings.Join(args, " "), err, msg, out)
	}
}

// sameBytes requires got to equal want, naming both sides and the first
// differing line.
func sameBytes(t *testing.T, gotName, wantName string, got, want []byte) {
	t.Helper()
	if d := diffLines(string(got), string(want)); d != "" {
		t.Errorf("%s differs from %s at %s", gotName, wantName, d)
	}
}

func sameFile(t *testing.T, got, want string) {
	t.Helper()
	sameBytes(t, got, want, readFile(t, got), readFile(t, want))
}

func decode(t *testing.T, what string, data []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v\n%s", what, err, data)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// writeFile writes content to a fresh temp file and returns its path.
func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseMetrics(t *testing.T) {
	const scrape = `# HELP jasd_sims_total Simulations actually executed, by kind.
# TYPE jasd_sims_total counter
jasd_sims_total{kind="request-level"} 1
jasd_sims_total{kind="detail"} 12

jasd_queue_depth 0
jasd_cpi 3.25
`
	m, err := parseMetrics(scrape)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 4 {
		t.Errorf("parsed %d series, want 4 (comments and blank lines skipped): %v", len(m), m)
	}
	for _, tc := range []struct {
		name    string
		want    map[string]float64
		wantErr string // substring of the error; "" = must pass
	}{
		{"labelled", map[string]float64{`jasd_sims_total{kind="detail"}`: 12}, ""},
		{"unlabelled", map[string]float64{"jasd_queue_depth": 0, "jasd_cpi": 3.25}, ""},
		{"wrong value", map[string]float64{`jasd_sims_total{kind="request-level"}`: 2},
			`jasd_sims_total{kind="request-level"} = 1, want 2`},
		{"missing series", map[string]float64{`jasd_sims_total{kind="variant"}`: 0},
			`series jasd_sims_total{kind="variant"} missing`},
	} {
		err := checkSeries(m, tc.want)
		if tc.wantErr == "" && err != nil || tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
			t.Errorf("%s: checkSeries error = %v, want %q", tc.name, err, tc.wantErr)
		}
	}
	for _, bad := range []string{"jasd_queue_depth", "jasd_queue_depth zero"} {
		if _, err := parseMetrics(bad); err == nil || !strings.Contains(err.Error(), "jasd_queue_depth") {
			t.Errorf("parseMetrics(%q) error = %v, want one naming the line", bad, err)
		}
	}
}
