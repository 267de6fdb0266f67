package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"jasworkload/internal/core"
	"jasworkload/internal/loadgen"
	"jasworkload/internal/mem"
	"jasworkload/internal/workload"
)

// JobSpec is the wire form of a run configuration: what clients POST to
// /v1/runs. Zero-valued fields take the per-scale defaults, exactly like
// the library's DefaultRunConfig/RunConfig override semantics.
type JobSpec struct {
	Scale string `json:"scale,omitempty"` // "quick" (default), "standard", "full"
	IR    int    `json:"ir,omitempty"`
	Seed  int64  `json:"seed,omitempty"`

	HeapMB     uint64  `json:"heap_mb,omitempty"`
	HeapPage   string  `json:"heap_page,omitempty"` // "4K" or "16M"
	DurationMS float64 `json:"duration_ms,omitempty"`
	RampMS     float64 `json:"ramp_ms,omitempty"`
	DetailFrac float64 `json:"detail_frac,omitempty"`

	// Workload selects a registered workload pack ("" = the default
	// jas2004). It is part of the canonical config, so jobs for different
	// packs never coalesce.
	Workload string `json:"workload,omitempty"`

	// Arrival is an inline loadgen spec (cohorts with steady/burst/ramp/
	// sweep processes, or a recorded trace). Absent means the legacy
	// steady Poisson loop. It participates in the canonical config, so
	// distinct load shapes never coalesce onto one job.
	Arrival json.RawMessage `json:"arrival,omitempty"`

	// TimeoutS bounds the run's execution time in wall-clock seconds,
	// counted from run start (0 = the daemon's -job-timeout default). It
	// is delivery metadata, not part of the experiment: two specs
	// differing only in timeout_s still coalesce onto one job, whose
	// deadline is the first submitter's.
	TimeoutS float64 `json:"timeout_s,omitempty"`
}

// RunConfig resolves the spec against the scale defaults.
func (s JobSpec) RunConfig() (core.RunConfig, error) {
	var sc core.Scale
	switch s.Scale {
	case "", "quick":
		sc = core.ScaleQuick
	case "standard":
		sc = core.ScaleStandard
	case "full":
		sc = core.ScaleFull
	default:
		return core.RunConfig{}, fmt.Errorf("unknown scale %q", s.Scale)
	}
	cfg := core.DefaultRunConfig(sc)
	if s.IR > 0 {
		cfg.IR = s.IR
	}
	if s.Seed != 0 {
		cfg.Seed = s.Seed
	}
	if s.HeapMB > 0 {
		cfg.HeapBytes = s.HeapMB << 20
	}
	switch s.HeapPage {
	case "":
	case "4K", "4k":
		cfg.HeapPageSize = mem.Page4K
	case "16M", "16m":
		cfg.HeapPageSize = mem.Page16M
	default:
		return core.RunConfig{}, fmt.Errorf("unknown heap page size %q (want 4K or 16M)", s.HeapPage)
	}
	if s.DurationMS < 0 || s.RampMS < 0 || s.DetailFrac < 0 || s.DetailFrac > 1 {
		return core.RunConfig{}, fmt.Errorf("negative duration/ramp or detail_frac outside [0,1]")
	}
	if s.TimeoutS < 0 {
		return core.RunConfig{}, fmt.Errorf("negative timeout_s %v", s.TimeoutS)
	}
	if s.DurationMS > 0 {
		cfg.DurationMS = s.DurationMS
	}
	if s.RampMS > 0 {
		cfg.RampMS = s.RampMS
	}
	if s.DetailFrac > 0 {
		cfg.DetailFrac = s.DetailFrac
	}
	if _, err := workload.Get(s.Workload); err != nil {
		return core.RunConfig{}, err
	}
	cfg.Workload = s.Workload
	if len(s.Arrival) > 0 {
		spec, err := loadgen.Parse(s.Arrival)
		if err != nil {
			return core.RunConfig{}, err
		}
		cfg.Arrival = spec.Canonical()
		if err := core.CheckArrivalClasses(cfg.Arrival, s.Workload); err != nil {
			return core.RunConfig{}, err
		}
		if spec.Trace != nil {
			// Reject a too-short or mis-sized trace at submit time (400)
			// instead of as a failed job: the engine windows are fixed at
			// 1 s and the canonical config fixes the run length.
			if spec.Trace.WindowMS != 1000 {
				return core.RunConfig{}, fmt.Errorf("trace window_ms %v: the engine runs 1000 ms windows", spec.Trace.WindowMS)
			}
			if need := int(cfg.Canonical().DurationMS / 1000); len(spec.Trace.Windows) < need {
				return core.RunConfig{}, fmt.Errorf("trace has %d windows, run needs %d", len(spec.Trace.Windows), need)
			}
		}
	}
	if cfg.RampMS >= cfg.DurationMS && cfg.DurationMS > 0 {
		return core.RunConfig{}, fmt.Errorf("ramp_ms %v must be below duration_ms %v", cfg.RampMS, cfg.DurationMS)
	}
	return cfg, nil
}

// jobID derives the stable job identifier from the canonical config: two
// specs describing the same experiment get the same ID, which is what lets
// clients share queue slots, streams, and finished bodies.
func jobID(cfg core.RunConfig) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", cfg.Canonical())))
	return hex.EncodeToString(sum[:6])
}
