package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"jasworkload/internal/core"
)

// sweepAxes is a 2x2 page-size x detail-frac grid: four cells, one
// distinct RequestKey (the quick heap is a 16M multiple).
func sweepAxes() []core.Axis {
	return []core.Axis{
		{Param: "heap_page", Values: []any{"4K", "16M"}},
		{Param: "detail_frac", Values: []any{0.01, 0.02}},
	}
}

// TestSweepRunsAndStreams: a stub-runner sweep fans its cells across the
// worker pool, emits one row per cell, retires done, and serves the row
// stream with replay plus a terminal line.
func TestSweepRunsAndStreams(t *testing.T) {
	s := New(Options{Workers: 2, QueueDepth: 8})
	s.runReport = func(ctx context.Context, j *Job) ([]byte, []byte, error) {
		return []byte(`{"pass":3,"total":5}` + "\n"), []byte("| md |\n"), nil
	}
	sw, err := s.SubmitSweep(testCfg(801), sweepAxes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := sw.Status(time.Now()); st.State != StateDone || st.Cells != 4 || st.RowsEmitted != 4 {
		t.Fatalf("sweep status = %+v, want done with 4 cells and 4 rows", st)
	}
	rows := sw.Rows()
	seen := map[int]bool{}
	for _, r := range rows {
		if r.State != StateDone {
			t.Fatalf("cell %d state = %s: %s", r.Cell, r.State, r.Error)
		}
		if r.Pass != 3 || r.Total != 5 {
			t.Fatalf("cell %d pass/total = %d/%d, want 3/5 (report body not parsed)", r.Cell, r.Pass, r.Total)
		}
		seen[r.Cell] = true
	}
	if len(seen) != 4 {
		t.Fatalf("distinct cells in rows = %d, want 4", len(seen))
	}

	// The stream replays all rows and ends with a terminal line.
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/sweeps/" + sw.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) != 5 {
		t.Fatalf("stream lines = %d, want 4 rows + terminal", len(lines))
	}
	var fin struct {
		Done  bool  `json:"done"`
		State State `json:"state"`
	}
	if err := json.Unmarshal([]byte(lines[4]), &fin); err != nil || !fin.Done || fin.State != StateDone {
		t.Fatalf("terminal line = %q (err %v)", lines[4], err)
	}

	// The comparison table has one row per cell.
	resp2, err := http.Get(srv.URL + "/v1/sweeps/" + sw.ID + "/table")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var table strings.Builder
	sc2 := bufio.NewScanner(resp2.Body)
	for sc2.Scan() {
		table.WriteString(sc2.Text() + "\n")
	}
	for _, want := range []string{"heap_page=4K detail_frac=0.01", "heap_page=16M detail_frac=0.02", "3/5"} {
		if !strings.Contains(table.String(), want) {
			t.Fatalf("table missing %q:\n%s", want, table.String())
		}
	}
}

// TestSweepDuplicateCellsDedup: grid points that canonicalize identically
// fold onto one cell and therefore one job.
func TestSweepDuplicateCellsDedup(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 8})
	s.runReport = func(ctx context.Context, j *Job) ([]byte, []byte, error) {
		return []byte("{}\n"), []byte("| md |\n"), nil
	}
	sw, err := s.SubmitSweep(testCfg(802), []core.Axis{
		{Param: "heap_page", Values: []any{"4K", "4k", "16M"}},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(sw.Cells) != 2 {
		t.Fatalf("cells = %d, want 2 (4K/4k folded)", len(sw.Cells))
	}
	if jobs := s.Jobs(); len(jobs) != 2 {
		t.Fatalf("jobs = %d, want 2 (duplicate grid points share one job)", len(jobs))
	}
}

// TestSweepValidation: grid errors reject at submission (HTTP 400), and
// unknown SweepSpec fields fail strict decoding.
func TestSweepValidation(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 4, MaxSweepCells: 8})
	s.runReport = func(ctx context.Context, j *Job) ([]byte, []byte, error) {
		return []byte("{}\n"), []byte("| md |\n"), nil
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out strings.Builder
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			out.WriteString(sc.Text())
		}
		return resp.StatusCode, out.String()
	}

	cases := []struct {
		name string
		body string
		want string
	}{
		{"unknown axis param", `{"base":{"scale":"quick"},"axes":[{"param":"heap_gb","values":[1]}]}`, "unknown parameter"},
		{"unknown spec field", `{"base":{"scale":"quick"},"axis":[{"param":"seed","values":[1]}]}`, "unknown field"},
		{"unknown base field", `{"base":{"scale":"quick","heap_gb":1},"axes":[{"param":"seed","values":[1]}]}`, "unknown field"},
		{"bad base scale", `{"base":{"scale":"huge"},"axes":[{"param":"seed","values":[1]}]}`, "unknown scale"},
		{"no axes", `{"base":{"scale":"quick"},"axes":[]}`, "no axes"},
		{"over cell cap", `{"base":{"scale":"quick"},"axes":[{"param":"seed","values":[1,2,3]},{"param":"ir","values":[10,20,30]}]}`, "more than 8 cells"},
	}
	for _, tc := range cases {
		code, body := post(tc.body)
		if code != http.StatusBadRequest || !strings.Contains(body, tc.want) {
			t.Errorf("%s: code=%d body=%s, want 400 with %q", tc.name, code, body, tc.want)
		}
	}
}

// TestSweepCancelReleasesCells: cancelling an in-flight sweep releases the
// sweep's reference on every cell job — cells nobody else holds abort,
// and the sweep retires canceled with one row per submitted cell.
func TestSweepCancelReleasesCells(t *testing.T) {
	s, started, release := blockingService(t, 1, 8)
	defer close(release)
	sw, err := s.SubmitSweep(testCfg(803), sweepAxes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	first := waitStart(t, started) // one cell running, the rest queued

	if _, err := s.CancelSweep(sw.ID); err != nil {
		t.Fatal(err)
	}
	if err := sw.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("sweep wait after cancel: %v", err)
	}
	if st := sw.State(); st != StateCanceled {
		t.Fatalf("sweep state = %s, want canceled", st)
	}
	// The running cell was aborted (the sweep held its only reference) and
	// every queued cell retired without starting.
	if err := first.Wait(context.Background()); !isCancellation(err) {
		t.Fatalf("running cell after sweep cancel: %v", err)
	}
	deadline := time.After(5 * time.Second)
	for _, j := range s.Jobs() {
		for !terminal(j.State()) {
			select {
			case <-deadline:
				t.Fatalf("cell job %s never retired after sweep cancel (state %s)", j.ID, j.State())
			case <-time.After(10 * time.Millisecond):
			}
		}
		if st := j.State(); st != StateCanceled {
			t.Fatalf("cell job %s state = %s, want canceled", j.ID, st)
		}
		if got := j.Status(time.Now()).Clients; got != 0 {
			t.Fatalf("cell job %s still holds %d clients after sweep cancel", j.ID, got)
		}
	}
	// A second cancel of the already-terminal sweep is a no-op lookup.
	if _, err := s.CancelSweep(sw.ID); err != nil {
		t.Fatalf("second cancel: %v", err)
	}
}

// TestSweepExternalClientKeepsCell: a cell shared with a direct /v1/runs
// client survives the sweep's cancellation — the client's reference keeps
// it running.
func TestSweepExternalClientKeepsCell(t *testing.T) {
	s, started, release := blockingService(t, 2, 8)
	sw, err := s.SubmitSweep(testCfg(804), []core.Axis{
		{Param: "detail_frac", Values: []any{0.01, 0.02}},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	first := waitStart(t, started)
	// An external client submits the same config the running cell has.
	ext, dedup, err := s.Submit(first.Cfg)
	if err != nil || !dedup || ext != first {
		t.Fatalf("external dedup submit: job=%p dedup=%v err=%v", ext, dedup, err)
	}
	if _, err := s.CancelSweep(sw.ID); err != nil {
		t.Fatal(err)
	}
	if err := sw.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("sweep wait: %v", err)
	}
	// The shared cell keeps running for the external client.
	if st := ext.State(); terminal(st) {
		t.Fatalf("externally-held cell retired by sweep cancel: %s", st)
	}
	close(release)
	if err := ext.Wait(context.Background()); err != nil {
		t.Fatalf("externally-held cell failed: %v", err)
	}
}

// TestSweepEndToEndSharesRequestLevel is the tentpole's service-level
// proof with real simulations: a 4-cell page-size x detail-frac grid
// executes exactly one request-level simulation (the cells' RequestKeys
// coincide) and four detail simulations.
func TestSweepEndToEndSharesRequestLevel(t *testing.T) {
	core.Flush()
	core.ResetSimCounts()
	defer core.Flush()
	s := New(Options{Workers: 2, QueueDepth: 8})
	cfg := testCfg(805)
	cfg.DurationMS = 8_000
	cfg.RampMS = 2_000
	sw, err := s.SubmitSweep(cfg, sweepAxes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, r := range sw.Rows() {
		if r.State != StateDone {
			t.Fatalf("cell %d (%s) state = %s: %s", r.Cell, r.Label, r.State, r.Error)
		}
		if r.JOPS <= 0 {
			t.Fatalf("cell %d JOPS = %v, want > 0", r.Cell, r.JOPS)
		}
	}
	sims := core.SimCounts()
	if sims["request-level"] != 1 {
		t.Errorf("request-level simulations = %d, want 1 (4 cells, 1 RequestKey)", sims["request-level"])
	}
	if sims["detail"] != 4 {
		t.Errorf("detail simulations = %d, want 4 (one per cell)", sims["detail"])
	}
	// All four cells' rows report identical JOPS: one shared run.
	rows := sw.Rows()
	for _, r := range rows[1:] {
		if r.JOPS != rows[0].JOPS {
			t.Errorf("cell %d JOPS %v != cell %d JOPS %v (shared run must agree)", r.Cell, r.JOPS, rows[0].Cell, rows[0].JOPS)
		}
	}
}

// TestSweepEvictionGone covers sweep retention over HTTP: once the
// done-ring TTL passes, every endpoint of a finished sweep answers 410
// Gone, while an ID that never existed answers 404.
func TestSweepEvictionGone(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 8, DoneTTL: time.Millisecond})
	s.runReport = func(ctx context.Context, j *Job) ([]byte, []byte, error) {
		return []byte("{}\n"), []byte("| md |\n"), nil
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	sw, err := s.SubmitSweep(testCfg(806), sweepAxes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	do := func(method, path string) int {
		t.Helper()
		req, _ := http.NewRequest(method, srv.URL+path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, path := range []string{"", "/stream", "/table"} {
		if code := do(http.MethodGet, "/v1/sweeps/"+sw.ID+path); code != http.StatusGone {
			t.Fatalf("GET %s of evicted sweep = %d, want 410", path, code)
		}
	}
	if code := do(http.MethodDelete, "/v1/sweeps/"+sw.ID); code != http.StatusGone {
		t.Fatalf("DELETE evicted sweep = %d, want 410", code)
	}
	for _, method := range []string{http.MethodGet, http.MethodDelete} {
		if code := do(method, "/v1/sweeps/swnosuchsweep"); code != http.StatusNotFound {
			t.Fatalf("%s unknown sweep = %d, want 404", method, code)
		}
	}
}

// TestSweepStreamResume: ?from=N skips the first N rows of a sweep's
// stream, like the run stream, and a negative offset is a 400.
func TestSweepStreamResume(t *testing.T) {
	s := New(Options{Workers: 2, QueueDepth: 8})
	s.runReport = func(ctx context.Context, j *Job) ([]byte, []byte, error) {
		return []byte("{}\n"), []byte("| md |\n"), nil
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	sw, err := s.SubmitSweep(testCfg(807), sweepAxes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	rows := sw.Rows()
	lines := streamLines(t, srv.URL+"/v1/sweeps/"+sw.ID+"/stream?from=3")
	if len(lines) != 2 {
		t.Fatalf("resumed sweep stream = %d lines, want row 3 + terminal:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	var row SweepRow
	if err := json.Unmarshal([]byte(lines[0]), &row); err != nil || row.Cell != rows[3].Cell {
		t.Fatalf("resumed stream started at cell %d, want cell %d (err %v)", row.Cell, rows[3].Cell, err)
	}

	resp, err := http.Get(srv.URL + "/v1/sweeps/" + sw.ID + "/stream?from=-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative from = %s, want 400", resp.Status)
	}
}
