package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"jasworkload/internal/core"
)

// This file is the sweep orchestration layer: POST /v1/sweeps takes a base
// JobSpec plus parameter axes, expands the grid through core.Sweep, fans
// the deduped cells across the ordinary bounded worker pool as regular
// jobs, and streams one NDJSON row per cell as it lands. Cells are jobs:
// they dedup against concurrent submissions (including other sweeps'),
// their reports stay individually addressable under /v1/runs/{id}, and —
// through the split artifact store — cells differing only in detail-only
// knobs share one request-level simulation, so an N-cell grid costs
// distinct(RequestKey) request-level runs.

// SweepSpec is the wire form of POST /v1/sweeps: the base experiment every
// cell starts from, and one axis per swept parameter. The base's
// timeout_s applies to each cell individually.
type SweepSpec struct {
	Base JobSpec     `json:"base"`
	Axes []core.Axis `json:"axes"`
}

// SweepRow is one NDJSON line of a sweep's stream: a cell's outcome,
// emitted the moment the cell's job reaches a terminal state. Rows arrive
// in completion order, not grid order — Cell indexes into the expanded
// grid.
type SweepRow struct {
	Cell       int      `json:"cell"`
	Label      string   `json:"label"`
	Aliases    []string `json:"aliases,omitempty"`
	JobID      string   `json:"job_id"`
	State      State    `json:"state"`
	Error      string   `json:"error,omitempty"`
	JOPS       float64  `json:"jops,omitempty"`
	CPI        float64  `json:"cpi,omitempty"`
	Pass       int      `json:"pass,omitempty"`
	Total      int      `json:"total,omitempty"`
	RunningSec float64  `json:"running_sec,omitempty"`
}

// SweepJob is one submitted sweep: the expanded cells, the orchestrator's
// lifecycle, and the row stream. Unlike jobs, sweeps are not refcounted —
// DELETE /v1/sweeps/{id} cancels outright, which releases the sweep's
// reference on every in-flight cell job (cells shared with other clients
// keep running for them).
type SweepJob struct {
	lifecycle[SweepRow]
	Cells []core.Cell

	rows []SweepRow // guarded by the lifecycle's mu
}

// SweepStatus is the wire form of a sweep's state (GET /v1/sweeps/{id}).
type SweepStatus struct {
	ID                  string  `json:"id"`
	State               State   `json:"state"`
	Error               string  `json:"error,omitempty"`
	Cells               int     `json:"cells"`
	DistinctRequestKeys int     `json:"distinct_request_keys"`
	RowsEmitted         int     `json:"rows_emitted"`
	RunningSec          float64 `json:"running_sec,omitempty"`
}

// Status snapshots the sweep.
func (sw *SweepJob) Status(now time.Time) SweepStatus {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	st := SweepStatus{
		ID:                  sw.ID,
		State:               sw.state,
		Cells:               len(sw.Cells),
		DistinctRequestKeys: core.DistinctRequestKeys(sw.Cells),
		RowsEmitted:         len(sw.rows),
	}
	if sw.err != nil {
		st.Error = sw.err.Error()
	}
	switch {
	case terminal(sw.state):
		st.RunningSec = sw.finished.Sub(sw.submitted).Seconds()
	default:
		st.RunningSec = now.Sub(sw.submitted).Seconds()
	}
	return st
}

// Rows snapshots the rows emitted so far, in completion order.
func (sw *SweepJob) Rows() []SweepRow {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	out := make([]SweepRow, len(sw.rows))
	copy(out, sw.rows)
	return out
}

// emitRow records and streams one cell outcome.
func (sw *SweepJob) emitRow(row SweepRow) {
	sw.mu.Lock()
	sw.rows = append(sw.rows, row)
	sw.mu.Unlock()
	sw.hub.emit(row)
}

// sweepID derives a sweep identifier: a per-process sequence number plus a
// digest of the expanded cells. The "sw" prefix keeps the namespace
// disjoint from job IDs.
func sweepID(seq uint64, cells []core.Cell) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%d|%#v", seq, cells)))
	return "sw" + hex.EncodeToString(sum[:5])
}

// SubmitSweep expands the grid (grid errors surface as 400s at the HTTP
// layer), registers the sweep, and starts its orchestrator. timeout is the
// per-cell run deadline (0 = the service default).
func (s *Service) SubmitSweep(base core.RunConfig, axes []core.Axis, timeout time.Duration) (*SweepJob, error) {
	cells, err := core.Sweep{Base: base, Axes: axes}.Expand(s.opts.MaxSweepCells)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	s.sweepSeq++
	sw := &SweepJob{Cells: cells}
	sw.init(sweepID(s.sweepSeq, cells), StateRunning, time.Now())
	s.sweeps.add(sw.ID, sw)
	s.metrics.addSweepCells(uint64(len(cells)))
	s.mu.Unlock()
	go s.runSweep(sw, timeout)
	return sw, nil
}

// runSweep is the orchestrator: it submits every cell as a regular job
// (sharing the bounded worker pool and queue with direct /v1/runs
// submissions — a full queue is waited out, not errored), then emits one
// row per cell as its job retires. Cancelling the sweep releases the
// sweep's reference on every in-flight cell, so cells nobody else wants
// abort mid-window while cells shared with other clients keep running.
func (s *Service) runSweep(sw *SweepJob, timeout time.Duration) {
	var wg sync.WaitGroup
	var submitErr error
	for _, cell := range sw.Cells {
		if sw.ctx.Err() != nil {
			break
		}
		j, _, err := s.SubmitTimeout(cell.Cfg, timeout)
		for err == ErrQueueFull && sw.ctx.Err() == nil {
			// The pool is saturated; the queue drains as workers finish, so
			// poll briefly rather than bouncing the whole sweep.
			time.Sleep(50 * time.Millisecond)
			j, _, err = s.SubmitTimeout(cell.Cfg, timeout)
		}
		if err != nil {
			if sw.ctx.Err() == nil {
				submitErr = err
				sw.emitRow(SweepRow{Cell: cell.Index, Label: cell.Label, Aliases: cell.Aliases, State: StateFailed, Error: err.Error()})
			}
			continue
		}
		wg.Add(1)
		go func(cell core.Cell, j *Job) {
			defer wg.Done()
			// The sweep holds exactly one reference on the cell job; it is
			// released when the row is emitted or the sweep is cancelled.
			defer s.release(j, time.Now())
			select {
			case <-j.done:
				sw.emitRow(s.sweepRow(cell, j))
			case <-sw.ctx.Done():
				sw.emitRow(SweepRow{Cell: cell.Index, Label: cell.Label, Aliases: cell.Aliases, JobID: j.ID, State: StateCanceled, Error: "sweep canceled"})
			}
		}(cell, j)
	}
	wg.Wait()
	err := sw.ctx.Err()
	if err == nil {
		err = submitErr
	}
	now := time.Now()
	if sw.retire(now, err, s.metrics.incSweeps) {
		s.mu.Lock()
		s.sweeps.retired(sw.ID, sw, now)
		s.expireLocked(now)
		s.mu.Unlock()
	}
}

// sweepRow renders one terminal cell job as a stream row. Figure reads go
// through Ready() first: a test-stubbed or failed job must not trigger a
// fresh simulation here.
func (s *Service) sweepRow(cell core.Cell, j *Job) SweepRow {
	st := j.Status(time.Now())
	row := SweepRow{
		Cell:       cell.Index,
		Label:      cell.Label,
		Aliases:    cell.Aliases,
		JobID:      j.ID,
		State:      st.State,
		Error:      st.Error,
		RunningSec: st.RunningSec,
	}
	if st.State != StateDone {
		return row
	}
	if jsonBody, _, ok := j.Report(); ok {
		var body reportBody
		if json.Unmarshal(jsonBody, &body) == nil {
			row.Pass, row.Total = body.Pass, body.Total
		}
	}
	rlReady, detReady := j.Art.Ready()
	if rlReady {
		if rl, err := j.Art.RequestLevel(); err == nil {
			row.JOPS = rl.Fig2().JOPS
		}
	}
	if detReady {
		if d, err := j.Art.Detail(); err == nil {
			if f5, err := d.Fig5(); err == nil {
				row.CPI = f5.MeanCPI
			}
		}
	}
	return row
}

// Sweep looks a sweep up by ID.
func (s *Service) Sweep(id string) (*SweepJob, bool) {
	sw, err := resolve(s, &s.sweeps, id)
	return sw, err == nil
}

// Sweeps snapshots all resident sweeps in submission order.
func (s *Service) Sweeps() []*SweepJob { return snapshot(s, &s.sweeps) }

// CancelSweep aborts a sweep: undelivered cells are skipped, and the
// sweep's reference on every in-flight cell job is released (the last
// reference aborts the cell's run mid-window). Returns the post-cancel
// status.
func (s *Service) CancelSweep(id string) (SweepStatus, error) {
	sw, err := resolve(s, &s.sweeps, id)
	if err != nil {
		return SweepStatus{}, err
	}
	sw.cancel()
	return sw.Status(time.Now()), nil
}

// Table renders the cross-cell comparison as a markdown table, rows in
// grid order. Cells without a row yet (sweep still running) are marked
// pending, so the table is meaningful at any point of the lifecycle.
func (sw *SweepJob) Table() string {
	rows := sw.Rows()
	byCell := map[int]SweepRow{}
	for _, r := range rows {
		byCell[r.Cell] = r
	}
	var b strings.Builder
	fmt.Fprintf(&b, "| cell | parameters | state | JOPS | CPI | pass | job |\n")
	fmt.Fprintf(&b, "|-----:|------------|-------|-----:|----:|-----:|-----|\n")
	idx := make([]int, 0, len(sw.Cells))
	for _, c := range sw.Cells {
		idx = append(idx, c.Index)
	}
	sort.Ints(idx)
	for _, i := range idx {
		c := sw.Cells[i]
		r, ok := byCell[i]
		if !ok {
			fmt.Fprintf(&b, "| %d | %s | pending | | | | |\n", c.Index, c.Label)
			continue
		}
		jops, cpi, pass := "", "", ""
		if r.State == StateDone {
			jops = fmt.Sprintf("%.1f", r.JOPS)
			if r.CPI > 0 {
				cpi = fmt.Sprintf("%.3f", r.CPI)
			}
			pass = fmt.Sprintf("%d/%d", r.Pass, r.Total)
		}
		fmt.Fprintf(&b, "| %d | %s | %s | %s | %s | %s | %s |\n", r.Cell, r.Label, r.State, jops, cpi, pass, r.JobID)
	}
	return b.String()
}
