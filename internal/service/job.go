package service

import (
	"context"
	"time"

	"jasworkload/internal/core"
	"jasworkload/internal/loadgen"
)

// Job is one deduplicated characterization run: every submission of an
// equivalent config maps to the same Job, which executes at most once.
// Each submission holds one reference; DELETE /v1/runs/{id} (and a
// wait=1 client disconnecting) releases one. When the last reference is
// released before the run finishes, the job's context is cancelled and
// the simulations abort mid-window.
type Job struct {
	lifecycle[WindowEvent]
	Cfg core.RunConfig
	Art *core.Artifact

	timeout time.Duration // run deadline once started (0 = none); fixed at submission

	// Guarded by the lifecycle's mu.
	clients    int // live references: submissions not yet released
	started    time.Time
	reportJSON []byte // rendered once; served verbatim to every client
	reportMD   []byte
}

// JobStatus is the wire form of a job's state (GET /v1/runs/{id}).
type JobStatus struct {
	ID            string  `json:"id"`
	State         State   `json:"state"`
	Error         string  `json:"error,omitempty"`
	Clients       int     `json:"clients"`
	Scale         string  `json:"scale"`
	IR            int     `json:"ir"`
	Seed          int64   `json:"seed"`
	Arrival       string  `json:"arrival,omitempty"` // loadgen summary, e.g. "2 cohorts (burst, steady)"
	TimeoutSec    float64 `json:"timeout_s,omitempty"`
	RequestLevel  bool    `json:"request_level_ready"`
	Detail        bool    `json:"detail_ready"`
	WindowsSoFar  int     `json:"windows_streamed"`
	QueuedSec     float64 `json:"queued_sec,omitempty"`
	RunningSec    float64 `json:"running_sec,omitempty"`
	ReportBytes   int     `json:"report_bytes,omitempty"`
	ReportMDBytes int     `json:"report_md_bytes,omitempty"`
}

// Status snapshots the job.
func (j *Job) Status(now time.Time) JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	rl, det := j.Art.Ready()
	st := JobStatus{
		ID:           j.ID,
		State:        j.state,
		Clients:      j.clients,
		Scale:        scaleName(j.Cfg.Scale),
		IR:           j.Cfg.IR,
		Seed:         j.Cfg.Seed,
		Arrival:      loadgen.SummaryString(j.Cfg.Arrival),
		TimeoutSec:   j.timeout.Seconds(),
		RequestLevel: rl,
		Detail:       det,
		WindowsSoFar: j.hub.len(),
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	switch j.state {
	case StateQueued:
		st.QueuedSec = now.Sub(j.submitted).Seconds()
	case StateRunning:
		st.RunningSec = now.Sub(j.started).Seconds()
	case StateDone, StateFailed, StateCanceled:
		if !j.finished.IsZero() && !j.started.IsZero() {
			st.RunningSec = j.finished.Sub(j.started).Seconds()
		}
	}
	st.ReportBytes = len(j.reportJSON)
	st.ReportMDBytes = len(j.reportMD)
	return st
}

// scaleName renders the Scale enum for status bodies.
func scaleName(s core.Scale) string {
	switch s {
	case core.ScaleQuick:
		return "quick"
	case core.ScaleStandard:
		return "standard"
	default:
		return "full"
	}
}

// Report returns the rendered report bodies; ok is false until the job is
// done. Both renderings are produced exactly once, so every client reads
// byte-identical content.
func (j *Job) Report() (jsonBody, mdBody []byte, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil, nil, false
	}
	return j.reportJSON, j.reportMD, true
}

// markRunning transitions queued→running. It returns false (and changes
// nothing) when the job already left the queued state — a cancel racing
// the worker's dequeue may have retired it first, and reviving a
// terminal job here would let the worker close j.done a second time.
func (j *Job) markRunning(now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = now
	return true
}

// runContext derives the context the job's pipeline executes under: the
// refcounted cancellation context, bounded by the job deadline when one
// is configured. The deadline clock starts when the run starts, not at
// submission — queue time does not eat the budget.
func (j *Job) runContext() (context.Context, context.CancelFunc) {
	if j.timeout > 0 {
		return context.WithTimeout(j.ctx, j.timeout)
	}
	return context.WithCancel(j.ctx)
}
