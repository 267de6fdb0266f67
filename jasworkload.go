// Package jasworkload reproduces, as a simulation study, the ISPASS 2007
// paper "Characterizing a Complex J2EE Workload: A Comprehensive Analysis
// and Opportunities for Optimizations" (Shuf & Steiner).
//
// The paper measured SPECjAppServer2004 on a 4-core POWER4 server (AIX, J9
// JVM, WebSphere, DB2) with hardware performance counters. This library
// rebuilds that entire measured stack as deterministic simulators — the
// multi-tier workload, the JVM heap/GC/JIT, a database with a buffer pool,
// and the POWER4 microarchitecture (caches, MCM topology, ERAT/TLB, branch
// predictors, prefetcher) — and, on top, the paper's actual contribution:
// the characterization pipeline that regenerates every figure and table.
//
// Quick start:
//
//	cfg := jasworkload.DefaultConfig(jasworkload.ScaleQuick)
//	report, err := jasworkload.Characterize(cfg)
//	if err != nil { ... }
//	fmt.Print(report)
//
// Individual experiments are exposed through RunRequestLevel (Figures 2-4)
// and RunDetail (Figures 5-10, locking); see the examples directory.
//
// All experiments draw from a shared run-artifact layer: runs are cached
// per configuration (ForConfig), so any mix of figures and tables for one
// Config costs at most one request-level and one instruction-detail
// simulation. Independent simulations (cross-check variants, ablation
// sweeps) execute concurrently, bounded by SetParallelism.
package jasworkload

import (
	"jasworkload/internal/core"
	"jasworkload/internal/mem"
)

// Scale selects run dimensions; see the constants.
type Scale = core.Scale

// Run scales.
const (
	// ScaleQuick is a seconds-long smoke configuration (IR 30, 256 MB heap,
	// 850-method universe). Trends hold; magnitudes are noisier.
	ScaleQuick = core.ScaleQuick
	// ScaleStandard is the paper's configuration (IR 40, 1 GB heap, 8,500
	// methods) over a compressed steady-state interval.
	ScaleStandard = core.ScaleStandard
	// ScaleFull runs the paper's 60-minute shape including the 5-minute
	// ramp.
	ScaleFull = core.ScaleFull
)

// Page sizes for the Java heap configuration (Section 4.2.2 ablation).
const (
	Page4K  = mem.Page4K
	Page16M = mem.Page16M
)

// Config parameterizes a characterization run.
type Config = core.RunConfig

// DefaultConfig returns the paper's configuration at the given scale.
func DefaultConfig(scale Scale) Config { return core.DefaultRunConfig(scale) }

// Report is the paper-vs-measured comparison across every experiment.
type Report = core.Report

// Characterize runs every experiment (Figures 2-10, the Section 4.2.4
// locking table, and the whole-system scalars) and returns the comparison
// report.
func Characterize(cfg Config) (*Report, error) { return core.BuildReport(cfg) }

// RequestLevelRun is a request-level-fidelity execution; Figures 2, 3 and 4
// are views of it.
type RequestLevelRun = core.RequestLevelRun

// RunRequestLevel executes the workload at request-level fidelity.
func RunRequestLevel(cfg Config) (*RequestLevelRun, error) { return core.RunRequestLevel(cfg) }

// DetailRun is an instruction-detail execution with HPM monitors attached;
// Figures 5-10 and the locking table are views of it.
type DetailRun = core.DetailRun

// RunDetail executes the workload at sampled instruction-level fidelity.
// With no group names, all standard HPM groups are collected.
func RunDetail(cfg Config, groups ...string) (*DetailRun, error) {
	return core.RunDetail(cfg, groups...)
}

// LargePageAblation holds the Section 4.2.2 comparison of 16 MB versus
// 4 KB pages for the Java heap.
type LargePageAblation = core.LargePageAblation

// RunLargePageAblation executes both page-size configurations and compares
// TLB behaviour.
func RunLargePageAblation(cfg Config) (LargePageAblation, error) {
	return core.RunLargePageAblation(cfg)
}

// ScalarsResult holds the whole-system scalar observations (JOPS/IR, CPU
// utilization and user/kernel split, the disk-starved comparison).
type ScalarsResult = core.ScalarsResult

// RunScalars executes the RAM-disk run plus the 2-disk comparison.
func RunScalars(cfg Config) (ScalarsResult, error) { return core.RunScalars(cfg) }

// IdleCPI measures the unloaded system's CPI (paper: ~0.7).
func IdleCPI(cfg Config) float64 { return core.IdleCPI(cfg) }

// CrossChecks holds the Trade6 and Sovereign-JVM robustness comparisons
// (Sections 3.1, 4.1.1 and 6 of the paper).
type CrossChecks = core.CrossChecks

// RunCrossChecks executes the Trade6 and Sovereign-JVM comparison runs.
func RunCrossChecks(cfg Config) (CrossChecks, error) { return core.RunCrossChecks(cfg) }

// Artifact is the cached pair of runs (request-level, instruction-detail)
// plus derived results for one configuration. Every figure and table is a
// memoized view over it.
type Artifact = core.Artifact

// ForConfig returns the process-wide artifact for cfg, creating it on
// first use. Repeated calls with an equivalent configuration return the
// same artifact, so experiments never re-simulate.
func ForConfig(cfg Config) *Artifact { return core.ForConfig(cfg) }

// FlushRuns drops every cached artifact. Subsequent experiments
// re-simulate; useful for benchmarking end-to-end cost or bounding memory
// in long-lived processes.
func FlushRuns() { core.Flush() }

// Parallelism reports the current bound on concurrently executing
// simulations (default: one per CPU).
func Parallelism() int { return core.Parallelism() }

// SetParallelism bounds how many simulations may execute concurrently and
// returns the previous value. n < 1 resets to the number of CPUs.
// Results are bit-identical at any setting; only wall clock changes.
func SetParallelism(n int) int { return core.SetParallelism(n) }

// Sweep declares a what-if grid: a base Config plus one Axis per swept
// parameter. Expand yields the grid's cells (canonicalized and deduped);
// running the cells through the artifact layer shares one request-level
// simulation among all cells whose configs differ only in detail-only
// knobs (heap page size at equal heap capacity, detail sampling
// fraction), so an N-cell grid costs distinct-request-key request-level
// runs, not N.
type Sweep = core.Sweep

// Axis is one swept parameter and its values; see SweepParams for the
// accepted parameter names.
type Axis = core.Axis

// SweepCell is one expanded grid cell: its index, human-readable label,
// canonical Config, and the labels of any duplicate grid points that
// folded onto it.
type SweepCell = core.Cell

// SweepParams lists the parameter names a sweep Axis may use.
func SweepParams() []string { return core.SweepParams() }

// DistinctRequestKeys reports how many request-level simulations the
// cells cost under split-key sharing.
func DistinctRequestKeys(cells []SweepCell) int { return core.DistinctRequestKeys(cells) }

// FidelityCacheStats counts run-store lookups for one fidelity.
type FidelityCacheStats = core.FidelityCacheStats

// SplitCacheStats reports hit/miss counters for the two store layers:
// full-config artifacts and shared request-level cells.
func SplitCacheStats() (artifact, requestLevel FidelityCacheStats) { return core.SplitCacheStats() }

// SimCounts reports how many simulations have actually executed, by kind
// ("request-level", "detail", "variant") — the ground truth behind any
// sharing claim.
func SimCounts() map[string]int { return core.SimCounts() }

// ShareRequestLevel reports whether request-level runs are shared across
// configs that agree on every request-level-visible knob (the default).
func ShareRequestLevel() bool { return core.ShareRequestLevel() }

// SetShareRequestLevel toggles split-key request-level sharing and
// returns the previous setting. Disabling reproduces the pre-split
// store: every distinct config pays for its own request-level run.
// Reports and figures are byte-identical either way.
func SetShareRequestLevel(enabled bool) bool { return core.SetShareRequestLevel(enabled) }
