// Package service wraps the characterization pipeline in a concurrent
// serving layer: a bounded job queue with backpressure, run deduplication
// through the shared run-artifact store, live NDJSON streaming of
// per-window statistics, finished figures/tables over HTTP, and a
// Prometheus-text /metrics surface. cmd/jasd is the daemon, cmd/jasctl the
// client.
//
// The invariant the layer preserves end to end is the pipeline's own:
// submissions are coalesced by canonical RunConfig, so N concurrent
// clients asking for the same experiment cost exactly one simulation per
// fidelity and read byte-identical response bodies (the report is rendered
// once and served verbatim).
//
// Lifecycle and retention: every submission holds one reference on its
// job; DELETE /v1/runs/{id} releases one, and releasing the last reference
// of an unfinished job cancels its context, which aborts the simulations
// mid-window. Terminal jobs enter a TTL+capacity-bounded done-ring; until
// eviction their reports and stream history stay available, after which
// the job is forgotten (410 Gone) and its artifact and event history are
// freed. Sweeps share the same lifecycle and retention code on a ring of
// their own. Cancellation never yields a partial report — the only
// outputs are a complete, deterministic report or an explicit canceled
// state.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"jasworkload/internal/core"
	"jasworkload/internal/sim"
)

// Options configures the service.
type Options struct {
	// Workers is the number of jobs executing concurrently (default 2).
	// Each job internally fans its independent simulations out on the
	// core scheduler, so total simulation concurrency is bounded by
	// Workers x core.Parallelism().
	Workers int
	// QueueDepth is how many jobs may wait beyond those running before
	// submissions are rejected with ErrQueueFull (default 8).
	QueueDepth int
	// RetryAfter is the backoff hint attached to queue-full rejections
	// (default 5s).
	RetryAfter time.Duration
	// JobTimeout bounds each run's execution time (measured from run
	// start, not submission). Zero means no deadline. A JobSpec's
	// timeout_s overrides it per job.
	JobTimeout time.Duration
	// DoneTTL is how long terminal jobs stay resident — report bytes,
	// figures, and stream history remain served — before eviction
	// (default 15m).
	DoneTTL time.Duration
	// DoneCap bounds how many terminal jobs stay resident regardless of
	// age; the oldest are evicted first (default 256).
	DoneCap int
	// MaxSweepCells caps the pre-dedup grid size a POST /v1/sweeps may
	// expand to (default 64). Larger grids are rejected with 400.
	MaxSweepCells int
}

func (o Options) withDefaults() Options {
	if o.Workers < 1 {
		o.Workers = 2
	}
	if o.QueueDepth < 1 {
		o.QueueDepth = 8
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = 5 * time.Second
	}
	if o.DoneTTL <= 0 {
		o.DoneTTL = 15 * time.Minute
	}
	if o.DoneCap < 1 {
		o.DoneCap = 256
	}
	if o.MaxSweepCells < 1 {
		o.MaxSweepCells = 64
	}
	return o
}

// Sentinel errors surfaced as HTTP status codes by the handler layer.
var (
	// ErrQueueFull rejects a submission when the wait queue is at
	// capacity (HTTP 429 + Retry-After).
	ErrQueueFull = errors.New("service: job queue full")
	// ErrDraining rejects submissions during graceful shutdown (HTTP 503).
	ErrDraining = errors.New("service: shutting down")
	// ErrUnknownJob reports an ID that was never seen (HTTP 404).
	ErrUnknownJob = errors.New("service: unknown job")
	// ErrGone reports an ID whose job was evicted from the done-ring
	// (HTTP 410): the report existed but has been retired.
	ErrGone = errors.New("service: job evicted")
	// errDropped fails queued jobs that shutdown could not start.
	errDropped = errors.New("service: dropped by shutdown before starting")
)

// Service owns the job store, the wait queue, and the worker pool.
type Service struct {
	opts    Options
	metrics *Metrics

	queue chan *Job
	wg    sync.WaitGroup

	mu       sync.Mutex
	byKey    map[core.RunConfig]*Job // canonical config -> job (dedup)
	jobs     index[*Job]
	sweeps   index[*SweepJob]
	sweepSeq uint64          // sweep ID sequence
	tombs    map[string]bool // evicted job and sweep IDs
	tombList []string        // tombstone insertion order, for capping
	draining bool

	// runReport executes one job's pipeline and returns the rendered
	// bodies. Tests stub it to exercise queueing without simulating.
	runReport func(ctx context.Context, j *Job) (jsonBody, mdBody []byte, err error)
}

// maxTombstones caps how many evicted IDs are remembered for 410
// responses; beyond this the oldest degrade to 404, which only misleads
// clients that sat on an ID for thousands of evictions.
const maxTombstones = 4096

// New builds a service and starts its worker pool.
func New(opts Options) *Service {
	s := &Service{
		opts:    opts.withDefaults(),
		metrics: NewMetrics(),
		byKey:   map[core.RunConfig]*Job{},
		tombs:   map[string]bool{},
	}
	s.queue = make(chan *Job, s.opts.QueueDepth)
	s.runReport = s.buildReport
	for i := 0; i < s.opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Metrics exposes the observability surface (for the HTTP layer and
// tests).
func (s *Service) Metrics() *Metrics { return s.metrics }

// RetryAfter returns the configured backoff hint.
func (s *Service) RetryAfter() time.Duration { return s.opts.RetryAfter }

// QueueDepth returns (current, capacity) of the wait queue.
func (s *Service) QueueDepth() (int, int) { return len(s.queue), s.opts.QueueDepth }

// Submit coalesces cfg onto an existing job or enqueues a new one with
// the service-default deadline.
func (s *Service) Submit(cfg core.RunConfig) (job *Job, deduped bool, err error) {
	return s.SubmitTimeout(cfg, 0)
}

// SubmitTimeout is Submit with a per-job deadline override (0 keeps
// Options.JobTimeout). deduped reports whether an existing job absorbed
// the submission — in that case the existing job's deadline stands.
// ErrQueueFull and ErrDraining are the two rejection causes.
func (s *Service) SubmitTimeout(cfg core.RunConfig, timeout time.Duration) (job *Job, deduped bool, err error) {
	key := cfg.Canonical()
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked(now)
	if j, ok := s.byKey[key]; ok {
		j.mu.Lock()
		j.clients++
		j.mu.Unlock()
		s.metrics.incDedupHits()
		return j, true, nil
	}
	if s.draining {
		return nil, false, ErrDraining
	}
	if timeout <= 0 {
		timeout = s.opts.JobTimeout
	}
	j := &Job{Cfg: key, Art: core.ForConfig(key), timeout: timeout, clients: 1}
	j.init(jobID(key), StateQueued, now)
	// Route the artifact's window stream to this job's hub and the GC
	// histogram before the run can start, so subscribers and /metrics see
	// every window.
	j.Art.SetWindowFunc(func(kind string, ws sim.WindowStats) {
		s.metrics.observeWindow(ws.GCs, ws.GCPauseMS)
		j.hub.emit(WindowEvent{Kind: kind, Window: ws})
	})
	select {
	case s.queue <- j:
	default:
		j.cancel()
		s.metrics.incJobsRejected()
		return nil, false, ErrQueueFull
	}
	s.byKey[key] = j
	s.jobs.add(j.ID, j)
	return j, false, nil
}

// resolve finds id among x's resident entries after an expiry tick. A
// miss is ErrGone for an evicted ID and ErrUnknownJob otherwise.
func resolve[T comparable](s *Service, x *index[T], id string) (T, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked(time.Now())
	if v, ok := x.byID[id]; ok {
		return v, nil
	}
	var zero T
	if s.tombs[id] {
		return zero, ErrGone
	}
	return zero, ErrUnknownJob
}

// Job looks a job up by ID.
func (s *Service) Job(id string) (*Job, bool) {
	j, err := resolve(s, &s.jobs, id)
	return j, err == nil
}

// Evicted reports whether id names a job that existed but was evicted.
func (s *Service) Evicted(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tombs[id]
}

// Jobs snapshots all resident jobs in submission order.
func (s *Service) Jobs() []*Job { return snapshot(s, &s.jobs) }

// snapshot copies x's resident entries in submission order after an
// expiry tick.
func snapshot[T comparable](s *Service, x *index[T]) []T {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked(time.Now())
	return slices.Clone(x.order)
}

// ResidentStats samples the retention gauges: how many jobs and sweeps
// are resident (any state) and how many bytes their stream histories
// hold. Scrapes double as eviction ticks, so retention converges even on
// an idle service that still gets monitored.
func (s *Service) ResidentStats() (residentJobs, residentSweeps, hubBytes int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked(time.Now())
	for _, j := range s.jobs.order {
		hubBytes += j.hub.bytes()
	}
	for _, sw := range s.sweeps.order {
		hubBytes += sw.hub.bytes()
	}
	return len(s.jobs.order), len(s.sweeps.order), hubBytes
}

// Cancel releases one submission reference of job id. When the last
// reference goes, an unfinished job is aborted: its context is cancelled
// (stopping queued jobs immediately and running simulations mid-window)
// and it retires in StateCanceled with no report. Finished jobs just
// shed the reference. The post-release status is returned.
func (s *Service) Cancel(id string) (JobStatus, error) {
	j, err := resolve(s, &s.jobs, id)
	if err != nil {
		return JobStatus{}, err
	}
	now := time.Now()
	s.release(j, now)
	return j.Status(now), nil
}

// release drops one reference on j; the last release of an unfinished
// job aborts it. Called by Cancel and by the HTTP layer when a blocking
// submit client disconnects (its reference is consumed either way).
func (s *Service) release(j *Job, now time.Time) {
	j.mu.Lock()
	if j.clients > 0 {
		j.clients--
	}
	last := j.clients == 0
	st := j.state
	j.mu.Unlock()
	if !last || terminal(st) {
		return
	}
	// Zero references on a live job: abort — but only after re-checking
	// under s.mu, because a dedup submit increments clients under s.mu
	// (SubmitTimeout's byKey hit) and may have revived the job between
	// the decrement above and now. Unregistering byKey under the same
	// lock makes the decision atomic: once the abort is committed, no
	// later submit can coalesce onto the dying job.
	s.mu.Lock()
	j.mu.Lock()
	if j.clients > 0 || terminal(j.state) {
		j.mu.Unlock()
		s.mu.Unlock()
		return
	}
	st = j.state
	if s.byKey[j.Cfg] == j {
		delete(s.byKey, j.Cfg)
	}
	j.mu.Unlock()
	s.mu.Unlock()
	// Cancelling the job context stops a running pipeline mid-window; a
	// still-queued job retires right here (the worker's guarded
	// markRunning skips it).
	j.cancel()
	if st == StateQueued && j.retire(now, context.Canceled, func(State) { s.metrics.incJobsCancelled() }) {
		s.noteTerminal(j, now)
	}
}

// noteTerminal records a freshly-terminal job in the done-ring and, for
// canceled/failed jobs, un-registers the config so a resubmission starts
// a fresh run (their artifact is dropped from the run store — a memo
// poisoned by ctx cancellation must not serve the stale error, and a
// failed run's partial simulations should not pin memory).
func (s *Service) noteTerminal(j *Job, now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch j.State() {
	case StateCanceled, StateFailed:
		if s.byKey[j.Cfg] == j {
			delete(s.byKey, j.Cfg)
		}
		core.Drop(j.Art)
	}
	s.jobs.retired(j.ID, j, now)
	s.expireLocked(now)
}

// expireLocked evicts the jobs and sweeps their done-rings hold past the
// TTL or over capacity. Eviction is lazy — driven by submissions,
// lookups, and metrics scrapes — so there is no background timer
// goroutine to leak. An evicted job also leaves the dedup map (identity
// checked: a resubmitted config reuses the ID while the old job waits)
// and drops its run-store artifact; both kinds free their stream history
// and leave a tombstone so clients get 410 rather than 404.
func (s *Service) expireLocked(now time.Time) {
	s.jobs.expire(now, s.opts, func(j *Job) {
		if s.byKey[j.Cfg] == j {
			delete(s.byKey, j.Cfg)
		}
		j.hub.release()
		core.Drop(j.Art)
		s.tombLocked(j.ID)
		s.metrics.incJobsEvicted()
	})
	s.sweeps.expire(now, s.opts, func(sw *SweepJob) {
		sw.hub.release()
		s.tombLocked(sw.ID)
	})
}

// tombLocked remembers an evicted ID for 410 responses, forgetting the
// oldest beyond maxTombstones.
func (s *Service) tombLocked(id string) {
	if s.tombs[id] {
		return
	}
	s.tombs[id] = true
	s.tombList = append(s.tombList, id)
	if len(s.tombList) > maxTombstones {
		delete(s.tombs, s.tombList[0])
		s.tombList = s.tombList[1:]
	}
}

// worker drains the queue. During shutdown, jobs that were still waiting
// are failed rather than started, so the drain deadline only covers runs
// already in flight.
func (s *Service) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			if j.retire(time.Now(), errDropped, func(State) { s.metrics.incJobsDropped() }) {
				s.noteTerminal(j, time.Now())
			}
			continue
		}
		if !j.markRunning(time.Now()) {
			continue // canceled while waiting; already retired
		}
		s.metrics.addInFlight(1)
		ctx, cancel := j.runContext()
		jsonBody, mdBody, err := s.runReport(ctx, j)
		cancel()
		now := time.Now()
		retired := j.retire(now, err, func(st State) {
			switch st {
			case StateDone:
				j.reportJSON, j.reportMD = jsonBody, mdBody
				s.metrics.incJobsDone()
			case StateCanceled:
				s.metrics.incJobsCancelled()
			default:
				s.metrics.incJobsFailed()
			}
		})
		if retired {
			s.noteTerminal(j, now)
		}
		s.metrics.addInFlight(-1)
	}
}

// reportBody is the JSON rendering of a finished run.
type reportBody struct {
	ID    string     `json:"id"`
	Scale string     `json:"scale"`
	IR    int        `json:"ir"`
	Seed  int64      `json:"seed"`
	Rows  []core.Row `json:"rows"`
	Pass  int        `json:"pass"`
	Total int        `json:"total"`
}

// buildReport is the production job runner: the full characterization
// pipeline over the shared artifact, rendered once. ctx aborts it
// mid-window; a cancelled build returns ctx's error and no bodies.
func (s *Service) buildReport(ctx context.Context, j *Job) ([]byte, []byte, error) {
	rep, err := core.BuildReportContext(ctx, j.Cfg)
	if err != nil {
		return nil, nil, err
	}
	body := reportBody{ID: j.ID, Scale: scaleName(j.Cfg.Scale), IR: j.Cfg.IR, Seed: j.Cfg.Seed, Rows: rep.Rows, Total: len(rep.Rows)}
	for _, r := range rep.Rows {
		if r.Holds {
			body.Pass++
		}
	}
	jsonBody, err := json.MarshalIndent(body, "", "  ")
	if err != nil {
		return nil, nil, err
	}
	jsonBody = append(jsonBody, '\n')

	// Publish the run's headline scalars to /metrics. Both views are
	// cached on the artifact BuildReport just filled, so this is free.
	if rl, err := j.Art.RequestLevel(); err == nil {
		s.metrics.setRunScalars(rl.Fig2().JOPS, 0)
		if d, err := j.Art.Detail(); err == nil {
			if f5, err := d.Fig5(); err == nil {
				s.metrics.setRunScalars(rl.Fig2().JOPS, f5.MeanCPI)
			}
		}
	}
	return jsonBody, []byte(rep.Markdown()), nil
}

// Shutdown drains gracefully: new submissions are rejected, queued jobs
// that have not started are failed, and in-flight runs get until ctx's
// deadline to finish. If the deadline expires first, every unfinished
// job's context is cancelled — running simulations abort at their next
// window boundary — and ctx.Err() is returned without waiting for them.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return fmt.Errorf("service: Shutdown called twice")
	}
	s.draining = true
	s.mu.Unlock()
	close(s.queue)

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Cancelling an already-terminal entry is a no-op, and cancel
		// only closes channels, so it is safe under s.mu.
		s.mu.Lock()
		for _, sw := range s.sweeps.order {
			sw.cancel()
		}
		for _, j := range s.jobs.order {
			j.cancel()
		}
		s.mu.Unlock()
		return ctx.Err()
	}
}
