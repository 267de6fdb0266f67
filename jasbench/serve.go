package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The serve workload runs a real jasd with a persistent store. Set-up
// boots it, completes one short cold job per pack and primes the lazily
// simulated figures; every timed op is then a round trip the daemon
// answers from memory, so only the service path is measured.

var (
	servePacks   = []string{"jas2004", "dataanalytics", "virtweb"}
	serveFigures = []string{"fig2", "fig3", "fig4", "tprof", "vmstat", "fig5", "fig6", "fig7",
		"fig8", "fig9", "fig10", "locking", "scalars", "crosschecks", "largepages"}
	// servePrimed are the figures that simulate on first request.
	servePrimed = []string{"scalars", "largepages", "crosschecks"}
	// serveKinds are the request kinds a session sends.
	serveKinds = []string{"submit", "status", "stream", "report", "figure", "metrics"}
)

// Short cold jobs keep set-up to seconds: 30 s of simulated time after a
// 10 s ramp.
const (
	serveJobMS  = 30_000
	serveRampMS = 10_000
)

// serveJob is one job of the daemon and its reference response bodies.
type serveJob struct {
	pack string
	id   string
	spec []byte
	refs map[string][]byte // response body by serveOp.key
}

// serveOp is one request of a session.
type serveOp struct {
	kind   string // one of serveKinds
	method string
	path   string
	body   []byte
}

func (op serveOp) key() string { return op.method + " " + op.path }

// session is one client session against the finished job j: the
// service walkthrough in the repository README, each request once, in its
// order and with its query parameters. It submits with ?wait=1 (the
// README's first example, and what jasctl submit -wait sends), then
// follows along: status, window stream, Markdown report, one figure as
// JSON ("any of fig2..fig10, ...", here fig), vmstat as text and
// /metrics. The walkthrough's asynchronous submit and closing DELETE are
// left out: the reference held between them is what the ?wait=1 submit
// already takes and releases.
func session(j *serveJob, fig string) []serveOp {
	run := "/v1/runs/" + j.id
	return []serveOp{
		{"submit", http.MethodPost, "/v1/runs?wait=1", j.spec},
		{"status", http.MethodGet, run, nil},
		{"stream", http.MethodGet, run + "/stream", nil},
		{"report", http.MethodGet, run + "/report?wait=1&format=md", nil},
		{"figure", http.MethodGet, run + "/figures/" + fig, nil},
		{"figure", http.MethodGet, run + "/figures/vmstat?format=text", nil},
		{"metrics", http.MethodGet, "/metrics", nil},
	}
}

// requests lists every distinct request a session can send for job j,
// except /metrics, whose body changes on every scrape.
func (j *serveJob) requests() []serveOp {
	var out []serveOp
	seen := map[string]bool{}
	for _, fig := range serveFigures {
		for _, op := range session(j, fig) {
			if op.kind != "metrics" && !seen[op.key()] {
				seen[op.key()] = true
				out = append(out, op)
			}
		}
	}
	return out
}

// daemon is one running jasd.
type daemon struct {
	cmd  *exec.Cmd
	base string
	dir  string
	log  *os.File
}

// startDaemon boots jasd on a free port with its store under dir.
func startDaemon(bin, dir string) (*daemon, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	log, err := os.Create(filepath.Join(dir, "jasd.log"))
	if err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-addrfile", addrFile, "-store-dir", filepath.Join(dir, "store"))
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("starting jasd: %w", err)
	}
	d := &daemon{cmd: cmd, dir: dir, log: log}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if addr, err := os.ReadFile(addrFile); err == nil && len(addr) > 0 {
			d.base = "http://" + strings.TrimSpace(string(addr))
			return d, nil
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("jasd did not publish its address within 30s")
		}
	}
}

// stop asks jasd to drain and exit, kills it if it does not within ten
// seconds, waits for it, and removes its directory.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an already-exited daemon is reaped below
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill() // Wait below reports the outcome
		err = <-done
		if err == nil {
			err = errors.New("jasd ignored SIGTERM")
		}
	}
	d.log.Close()
	if rmErr := os.RemoveAll(d.dir); rmErr != nil && err == nil {
		err = rmErr
	}
	return err
}

// do performs one request and returns the status and body.
func do(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// get requires a 200 response.
func get(c *http.Client, url string) ([]byte, error) {
	code, body, err := do(c, http.MethodGet, url, nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d: %s", url, code, bytes.TrimSpace(body))
	}
	return body, err
}

// serveSetup is one set-up: boot, cold jobs, priming and references.
type serveSetup struct {
	d       *daemon
	jobs    []*serveJob
	coldMS  []float64
	sims    map[string]float64
	metrics map[string]float64
}

func setupServe(b *bench, c *http.Client, rep int) (*serveSetup, error) {
	d, err := startDaemon(b.jasd, filepath.Join(b.root, ".bench_build", "serve", strconv.Itoa(rep)))
	if err != nil {
		return nil, err
	}
	s := &serveSetup{d: d}
	fail := func(err error) (*serveSetup, error) {
		d.stop()
		return nil, err
	}
	for _, pack := range servePacks {
		spec, _ := json.Marshal(map[string]any{"scale": "quick", "seed": b.seed, "workload": pack,
			"duration_ms": serveJobMS, "ramp_ms": serveRampMS})
		t0 := time.Now()
		req, err := http.NewRequest(http.MethodPost, d.base+"/v1/runs?wait=1", bytes.NewReader(spec))
		if err != nil {
			return fail(err)
		}
		resp, err := c.Do(req)
		if err != nil {
			return fail(fmt.Errorf("cold %s job: %w", pack, err))
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		s.coldMS = append(s.coldMS, float64(time.Since(t0))/1e6)
		if err != nil || resp.StatusCode != http.StatusOK {
			return fail(fmt.Errorf("cold %s job: status %d: %v %s", pack, resp.StatusCode, err, bytes.TrimSpace(body)))
		}
		s.jobs = append(s.jobs, &serveJob{pack: pack, id: strings.TrimPrefix(resp.Header.Get("Location"), "/v1/runs/"),
			spec: spec, refs: map[string][]byte{}})
	}
	for _, j := range s.jobs {
		for _, fig := range servePrimed {
			if _, err := get(c, d.base+"/v1/runs/"+j.id+"/figures/"+fig); err != nil {
				return fail(fmt.Errorf("priming: %w", err))
			}
		}
	}
	// References: one response to every request a session can send,
	// captured after the daemon is primed; every timed response must
	// match its reference.
	for _, j := range s.jobs {
		for _, op := range j.requests() {
			code, body, err := do(c, op.method, d.base+op.path, op.body)
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("status %d", code)
			}
			if err != nil {
				return fail(fmt.Errorf("reference %s of %s: %w", op.key(), j.pack, err))
			}
			j.refs[op.key()] = body
		}
	}
	if s.metrics, err = scrape(c, d.base); err != nil {
		return fail(err)
	}
	s.sims = simsTotal(s.metrics)
	return s, nil
}

// runServe measures jasd round trips from runtime.NumCPU() closed-loop
// client connections, each running sessions back to back.
func runServe(b *bench) (*outcome, error) {
	if b.jasd == "" {
		return nil, errors.New("the serve workload needs --jasd")
	}
	o := &outcome{layer: map[string]float64{}, meta: map[string]any{}}
	c := &http.Client{Timeout: 120 * time.Second}
	var s *serveSetup
	var cold []float64
	for rep := 0; rep < setupReps; rep++ {
		if s != nil {
			if err := s.d.stop(); err != nil {
				return nil, fmt.Errorf("stopping set-up daemon: %w", err)
			}
		}
		t0 := time.Now()
		next, err := setupServe(b, c, rep)
		o.setups = append(o.setups, time.Since(t0))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if s != nil {
			if err := sameRefs(s.jobs, next.jobs); err != nil {
				next.d.stop()
				return nil, fmt.Errorf("set-up %d: %w", rep, err)
			}
		}
		s = next
		cold = append(cold, s.coldMS...)
	}
	d := s.d
	defer d.stop()
	pid := d.cmd.Process.Pid

	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	alloc0, err := daemonTotalAlloc(c, d.base)
	if err != nil {
		return nil, err
	}
	// The daemon's memory high-water mark was set by the cold jobs; reset
	// it, so peak_rss_mb is the peak of the timed phase alone.
	if err := os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0); err != nil {
		return nil, fmt.Errorf("resetting jasd's peak RSS: %w", err)
	}
	workers := runtime.NumCPU()
	type result struct {
		d        time.Duration
		untraced bool
		err      error
	}
	results := make([][]result, workers)
	var opIDs atomic.Int64
	start := time.Now()
	deadline := start.Add(b.seconds)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
				MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
			defer client.CloseIdleConnections()
			rng := rand.New(rand.NewSource(b.seed*1000 + int64(w)))
			for n := 0; time.Now().Before(deadline); n++ {
				j := s.jobs[rng.Intn(len(s.jobs))]
				for pos, req := range session(j, serveFigures[rng.Intn(len(serveFigures))]) {
					if !time.Now().Before(deadline) {
						break
					}
					op := int(opIDs.Add(1))
					tr := b.opTracer(pos, n)
					root := tr.begin("op.serve", 0, op)
					id := tr.begin("service."+req.kind, root, op)
					t0 := time.Now()
					code, body, err := do(client, req.method, d.base+req.path, req.body)
					dur := time.Since(t0)
					tr.end(id)
					if err == nil {
						err = checkResponse(req.kind, j, code, body, j.refs[req.key()], s.sims)
					}
					tr.end(root)
					results[w] = append(results[w], result{dur, b.untracedOp(pos, n), err})
				}
			}
		}()
	}
	wg.Wait()
	o.elapsed = time.Since(start)
	for _, rs := range results {
		for _, r := range rs {
			o.record(r.d, r.untraced)
			if r.err != nil {
				o.fail(r.err)
			}
		}
	}

	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	alloc1, err := daemonTotalAlloc(c, d.base)
	if err != nil {
		return nil, err
	}
	o.cpu, o.alloc = cpu1-cpu0, alloc1-alloc0
	if o.peakRSSMB, err = peakRSSMB(strconv.Itoa(pid)); err != nil {
		return nil, err
	}
	end, err := scrape(c, d.base)
	if err != nil {
		return nil, err
	}
	simsDuring := 0.0
	for kind, v := range simsTotal(end) {
		simsDuring += v - s.sims[kind]
	}
	if simsDuring != 0 {
		o.fail(fmt.Errorf("jasd ran %v simulations during the timed phase", simsDuring))
	}
	o.meta["client_connections"] = workers
	o.meta["cold_job_ms"] = cold
	if b.tr == nil {
		return o, nil
	}
	spans := b.tr.snapshot()
	for _, kind := range serveKinds {
		o.layer["service."+kind+"_p50_ms"] = median(spanDurations(spans, "service."+kind)) / 1e6
	}
	o.layer["service.cold_job_ms"] = mean(cold)
	o.layer["service.sims_during_ops"] = simsDuring
	o.layer["store.writes"] = s.metrics["jasd_store_writes_total"]
	o.layer["store.bytes"] = s.metrics["jasd_store_bytes"]
	return o, nil
}

// checkResponse requires a 200 and the reference body. /metrics changes
// on every scrape, so for it the check is that no simulation ran since
// set-up; a status body carries the job's live reference count, which
// concurrent resubmits of the job raise while they wait, so every other
// field of it must match.
func checkResponse(kind string, j *serveJob, code int, body, ref []byte, sims map[string]float64) error {
	if code != http.StatusOK {
		return fmt.Errorf("%s: status %d", kind, code)
	}
	if kind == "metrics" {
		m, err := parseMetrics(body)
		if err != nil {
			return err
		}
		for k, v := range simsTotal(m) {
			if v != sims[k] {
				return fmt.Errorf("metrics: %s went from %v to %v during the timed phase", k, sims[k], v)
			}
		}
		return nil
	}
	if kind == "status" {
		if !sameStatus(body, ref) {
			return fmt.Errorf("status of %s job: body differs from its reference beyond the client count:\n got %s\nwant %s", j.pack, body, ref)
		}
		return nil
	}
	if !bytes.Equal(body, ref) {
		return fmt.Errorf("%s of %s job: body differs from its reference (%d vs %d bytes)", kind, j.pack, len(body), len(ref))
	}
	return nil
}

// sameStatus reports whether two job status bodies agree in every field
// but the live reference count.
func sameStatus(a, b []byte) bool {
	var x, y map[string]any
	if json.Unmarshal(a, &x) != nil || json.Unmarshal(b, &y) != nil {
		return false
	}
	delete(x, "clients")
	delete(y, "clients")
	return reflect.DeepEqual(x, y)
}

// sameRefs requires two set-ups' reference bodies to agree, except the
// status bodies, which carry each daemon's own run time, and the window
// streams, which interleave the concurrent request-level and detail
// legs in the order they happened to run.
func sameRefs(a, b []*serveJob) error {
	var diff []string
	for i := range a {
		for _, op := range a[i].requests() {
			k := op.key()
			if op.kind != "status" && op.kind != "stream" && !bytes.Equal(a[i].refs[k], b[i].refs[k]) {
				diff = append(diff, a[i].pack+" "+k)
			}
		}
	}
	if len(diff) > 0 {
		sort.Strings(diff)
		return fmt.Errorf("responses differ between daemons: %s", strings.Join(diff, ", "))
	}
	return nil
}

// scrape reads the daemon's /metrics.
func scrape(c *http.Client, base string) (map[string]float64, error) {
	body, err := get(c, base+"/metrics")
	if err != nil {
		return nil, err
	}
	return parseMetrics(body)
}

// parseMetrics reads Prometheus text lines "name{labels} value".
func parseMetrics(body []byte) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// simsTotal picks the jasd_sims_total series out of a scrape.
func simsTotal(m map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range m {
		if strings.HasPrefix(k, "jasd_sims_total{") {
			out[k] = v
		}
	}
	return out
}

// daemonTotalAlloc reads the daemon's cumulative heap allocation from
// its heap profile's runtime.MemStats trailer.
func daemonTotalAlloc(c *http.Client, base string) (uint64, error) {
	body, err := get(c, base+"/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, "# TotalAlloc = "); ok {
			return strconv.ParseUint(strings.TrimSpace(v), 10, 64)
		}
	}
	return 0, errors.New("no TotalAlloc in the heap profile")
}
