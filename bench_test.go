// Benchmarks regenerating every table and figure of the paper. Each
// benchmark reports the headline quantity the paper's artifact shows, so
// `go test -bench=. -benchmem` doubles as the reproduction harness.
//
// The figure benchmarks are views over the shared run-artifact layer: the
// first benchmark to need a fidelity pays for its simulation, and every
// later iteration (and benchmark) reuses the cached run, so these measure
// view-derivation cost. BenchmarkBuildReport flushes the cache each
// iteration and therefore measures the true end-to-end pipeline.
//
// For paper-scale dimensions (IR 40, 1 GB heap, 8,500 methods) run
// `go run ./cmd/jasrun -scale standard`.
package jasworkload

import (
	"runtime"
	"testing"

	"jasworkload/internal/core"
	"jasworkload/internal/isa"
	"jasworkload/internal/loadgen"
	"jasworkload/internal/power4"
	"jasworkload/internal/server"
	"jasworkload/internal/sim"
	"jasworkload/internal/workload"
)

func quickCfg() Config { return DefaultConfig(ScaleQuick) }

// requestLevel fetches the cached request-level run (simulating on the
// first call only).
func requestLevel(b *testing.B) *core.RequestLevelRun {
	b.Helper()
	run, err := RunRequestLevel(quickCfg())
	if err != nil {
		b.Fatal(err)
	}
	return run
}

// detail fetches the cached instruction-detail run (simulating on the
// first call only).
func detail(b *testing.B) *core.DetailRun {
	b.Helper()
	d, err := RunDetail(quickCfg())
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkFig2Throughput regenerates Figure 2: per-class transaction
// throughput over the run, stabilizing after ramp-up.
func BenchmarkFig2Throughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := requestLevel(b)
		f2 := run.Fig2()
		var total float64
		for rt := 0; rt < server.NumRequestTypes; rt++ {
			total += f2.SteadyMean[rt]
		}
		b.ReportMetric(total, "req/s")
		b.ReportMetric(f2.JOPS/float64(run.Cfg.IR), "JOPS/IR")
	}
}

// BenchmarkFig3GC regenerates Figure 3: GC pause, interval, and share of
// runtime.
func BenchmarkFig3GC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := requestLevel(b)
		f3 := run.Fig3()
		b.ReportMetric(f3.Summary.MeanPauseMS, "gc-ms")
		b.ReportMetric(f3.Summary.MeanIntervalSec, "gc-interval-s")
		b.ReportMetric(f3.Summary.PercentOfRuntime, "gc-%runtime")
	}
}

// BenchmarkFig4Profile regenerates Figure 4: the component breakdown and
// the flat method profile.
func BenchmarkFig4Profile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := requestLevel(b)
		f4 := run.Fig4()
		b.ReportMetric(f4.WASOverWebPlusDB, "WAS/(web+db2)")
		b.ReportMetric(float64(f4.Report.MethodsFor50Pct), "methods-for-50%")
	}
}

// BenchmarkFig5CPI regenerates Figure 5: CPI, speculation rate, L1 miss.
func BenchmarkFig5CPI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := detail(b)
		f5, err := d.Fig5()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f5.MeanCPI, "CPI")
		b.ReportMetric(f5.MeanSpec, "disp/comp")
		b.ReportMetric(f5.IdleCPI, "idle-CPI")
	}
}

// BenchmarkFig6Branch regenerates Figure 6: branch prediction.
func BenchmarkFig6Branch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := detail(b)
		f6, err := d.Fig6()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*f6.MeanCondMiss, "cond-miss-%")
		b.ReportMetric(100*f6.MeanTargetMiss, "target-miss-%")
	}
}

// BenchmarkFig7TLB regenerates Figure 7: ERAT/TLB miss frequencies and the
// large-page ablation.
func BenchmarkFig7TLB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := detail(b)
		f7, err := d.Fig7()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f7.InstrBetweenDERAT, "instr/DERAT-miss")
		b.ReportMetric(100*f7.TLBSatisfiesDERAT, "TLB-covers-%")
	}
}

// BenchmarkFig7LargePages regenerates the Section 4.2.2 large-page
// ablation behind Figure 7.
func BenchmarkFig7LargePages(b *testing.B) {
	for i := 0; i < b.N; i++ {
		abl, err := RunLargePageAblation(quickCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(abl.DTLBHitGainPct, "DTLB-hit-gain-%")
		b.ReportMetric(abl.ITLBHitGainPct, "ITLB-hit-gain-%")
	}
}

// BenchmarkFig8L1D regenerates Figure 8: L1 D-cache load/store miss rates.
func BenchmarkFig8L1D(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := detail(b)
		f8, err := d.Fig8()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f8.MeanLoadMiss, "miss/load")
		b.ReportMetric(f8.MeanStoreMiss, "miss/store")
	}
}

// BenchmarkFig9Sourcing regenerates Figure 9: where L1 misses are
// satisfied from.
func BenchmarkFig9Sourcing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := detail(b)
		f9, err := d.Fig9()
		if err != nil {
			b.Fatal(err)
		}
		var l2 float64
		for src, v := range f9.Share {
			if src.String() == "L2" {
				l2 = v
			}
		}
		b.ReportMetric(100*l2, "L2-share-%")
		b.ReportMetric(100*f9.ModifiedShare, "L2.75-mod-%")
	}
}

// BenchmarkTableLocking regenerates the Section 4.2.4 locking/SYNC table.
func BenchmarkTableLocking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := detail(b)
		lk, err := d.Locking()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lk.InstrPerLarx, "instr/LARX")
		b.ReportMetric(100*lk.SyncSRQShareKernel, "kernel-SYNC-%")
	}
}

// BenchmarkFig10Correlation regenerates Figure 10: the CPI correlation
// analysis.
func BenchmarkFig10Correlation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := detail(b)
		f10, err := d.Fig10()
		if err != nil {
			b.Fatal(err)
		}
		if r, ok := f10.Corr("Cond. Branch Mispred."); ok {
			b.ReportMetric(r, "r(CPI,cond-miss)")
		}
		b.ReportMetric(f10.TargetMissVsICacheMiss, "r(tgt,L1I)")
	}
}

// BenchmarkTableScalars regenerates the Section 2/4.1 whole-system
// scalars, including the disk-starved comparison.
func BenchmarkTableScalars(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc, err := RunScalars(quickCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sc.JOPSPerIR, "JOPS/IR")
		b.ReportMetric(100*sc.UtilRAMDisk, "util-%")
		b.ReportMetric(100*sc.DiskIOWaitShare, "disk-iowait-%")
	}
}

// BenchmarkAblationL2Size runs the Section 4.2.3 what-if: CPI versus L2
// capacity ("Increasing the size of the L2 cache can improve performance").
func BenchmarkAblationL2Size(b *testing.B) {
	cfg := quickCfg()
	cfg.DurationMS = 60_000
	cfg.RampMS = 20_000
	for i := 0; i < b.N; i++ {
		pts, err := core.L2SizeStudy(cfg, []int{768, 3072})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[0].CPI, "CPI@768KB")
		b.ReportMetric(pts[1].CPI, "CPI@3MB")
	}
}

// BenchmarkAblationL3Latency runs the Section 4.2.3 what-if: CPI versus L3
// latency ("a lower latency to L3 could also deliver sizeable performance
// benefits").
func BenchmarkAblationL3Latency(b *testing.B) {
	cfg := quickCfg()
	cfg.DurationMS = 60_000
	cfg.RampMS = 20_000
	for i := 0; i < b.N; i++ {
		pts, err := core.L3LatencyStudy(cfg, []float64{110, 40})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[0].CPI, "CPI@110cyc")
		b.ReportMetric(pts[1].CPI, "CPI@40cyc")
	}
}

// BenchmarkAblationCodePages runs the Section 4.2.2 follow-on: JIT code in
// 16 MB pages.
func BenchmarkAblationCodePages(b *testing.B) {
	cfg := quickCfg()
	cfg.DurationMS = 60_000
	cfg.RampMS = 20_000
	for i := 0; i < b.N; i++ {
		pts, err := core.CodeLargePagesStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(1e6*pts[0].Extra, "ITLB-ppm@4K")
		b.ReportMetric(1e6*pts[1].Extra, "ITLB-ppm@16M")
	}
}

// BenchmarkAblationCoreScaling runs the Section 7 future-work study:
// throughput and CPI versus core count at proportional load.
func BenchmarkAblationCoreScaling(b *testing.B) {
	cfg := quickCfg()
	cfg.DurationMS = 60_000
	cfg.RampMS = 20_000
	for i := 0; i < b.N; i++ {
		pts, err := core.CoreScalingStudy(cfg, []int{1, 2})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[0].Extra, "JOPS@2cores")
		b.ReportMetric(pts[1].Extra, "JOPS@4cores")
	}
}

// benchTrace caches one emitter-recorded detail stream so the stream
// benchmarks measure consumption, not generation, and both measure the
// exact same instructions.
var benchTrace []isa.Instr

// benchDetailTrace records ~2M instructions of the real detail-mode
// stream: the four request classes plus GC and idle work.
func benchDetailTrace(b testing.TB) []isa.Instr {
	b.Helper()
	if benchTrace != nil {
		return benchTrace
	}
	sut, err := sim.BuildSUT(sim.DefaultSUTConfig(30))
	if err != nil {
		b.Fatal(err)
	}
	rec := &isa.Recorder{}
	types := []server.RequestType{
		server.ReqBrowse, server.ReqPurchase, server.ReqManage, server.ReqCreateVehicle,
	}
	now := 0.0
	for i := 0; len(rec.Trace) < 2_000_000; i++ {
		if _, err := sut.Server.Execute(now, types[i%len(types)], rec, 0.2); err != nil {
			b.Fatal(err)
		}
		now += 33
		if i%16 == 15 {
			sut.Server.EmitGC(rec, 20_000)
			sut.Server.EmitIdle(rec, 5_000)
		}
	}
	benchTrace = rec.Trace
	return benchTrace
}

// benchStreamCore builds a fresh consuming core for a stream benchmark.
func benchStreamCore(b testing.TB) *sim.SUT {
	b.Helper()
	sut, err := sim.BuildSUT(sim.DefaultSUTConfig(30))
	if err != nil {
		b.Fatal(err)
	}
	return sut
}

// benchFusedTrace replays a recorded single-core trace through the fused
// loop (batches into Core.ConsumeBatch, fast paths enabled), so every
// pack's stream is measured by the same consumption harness.
func benchFusedTrace(b *testing.B, trace []isa.Instr) {
	b.Helper()
	sut := benchStreamCore(b)
	c := sut.Cores[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		isa.Replay(trace, c, isa.DefaultBatchCap)
	}
	b.StopTimer()
	b.ReportMetric(float64(len(trace))*float64(b.N)/b.Elapsed().Seconds(), "instr/s")
}

// BenchmarkDetailStream measures the single-core detail-mode hot path:
// the recorded stream delivered in batches through the fused loop with
// fast paths enabled, as in production. The multi-core sharded schedule
// is measured separately by BenchmarkDetailStreamSharded.
func BenchmarkDetailStream(b *testing.B) {
	benchFusedTrace(b, benchDetailTrace(b))
}

// benchTraceDA caches the dataanalytics-pack stream the same way
// benchTrace caches jas2004's.
var benchTraceDA []isa.Instr

// benchDetailTraceDA records ~2M instructions of the dataanalytics
// pack's detail stream: batch-heavy classes with large sequential scans
// and a skewed method profile, cycled round-robin plus GC and idle work.
func benchDetailTraceDA(b testing.TB) []isa.Instr {
	b.Helper()
	if benchTraceDA != nil {
		return benchTraceDA
	}
	w, err := workload.Get("dataanalytics")
	if err != nil {
		b.Fatal(err)
	}
	scfg := sim.DefaultSUTConfig(30)
	scfg.App = server.AppFor(w)
	scfg.Profile = w.TuneProfile(scfg.Profile)
	sut, err := sim.BuildSUT(scfg)
	if err != nil {
		b.Fatal(err)
	}
	rec := &isa.Recorder{}
	n := sut.Server.App().NumClasses()
	now := 0.0
	for i := 0; len(rec.Trace) < 2_000_000; i++ {
		if _, err := sut.Server.Execute(now, server.RequestType(i%n), rec, 0.2); err != nil {
			b.Fatal(err)
		}
		now += 33
		if i%16 == 15 {
			sut.Server.EmitGC(rec, 20_000)
			sut.Server.EmitIdle(rec, 5_000)
		}
	}
	benchTraceDA = rec.Trace
	return benchTraceDA
}

// BenchmarkDetailStreamDataAnalytics is BenchmarkDetailStream over the
// dataanalytics pack's stream: same fused replay, different
// instruction mix (scan-dominated data references, higher allocation
// rate), so the two legs together show how stream consumption cost
// tracks workload character rather than a single pinned trace.
func BenchmarkDetailStreamDataAnalytics(b *testing.B) {
	benchFusedTrace(b, benchDetailTraceDA(b))
}

// BenchmarkDetailStreamReference measures the pre-batching path the
// tentpole replaced: one virtual Consume call per instruction with the
// fast paths disabled. The ratio DetailStream/DetailStreamReference is
// the headline speedup.
func BenchmarkDetailStreamReference(b *testing.B) {
	trace := benchDetailTrace(b)
	sut := benchStreamCore(b)
	c := sut.Cores[0]
	c.SetFastPaths(false)
	sut.Hier.SetFastPaths(false)
	var sink isa.Sink = c // dispatch through the interface, as before the change
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range trace {
			sink.Consume(&trace[j])
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(trace))*float64(b.N)/b.Elapsed().Seconds(), "instr/s")
}

// replayInterleaved delivers the trace in fixed-size chunks round-robin
// across per-core sinks — the multi-core feed shape the engine produces,
// where every core carries a slice of the stream over the shared
// hierarchy. The single-core stream benchmarks above deliberately
// saturate one core; this harness is for measuring schedules whose
// speedup comes from running the cores' slices concurrently.
func replayInterleaved(trace []isa.Instr, sinks []isa.BatchSink, chunk int) {
	for off, c := 0, 0; off < len(trace); off, c = off+chunk, c+1 {
		end := off + chunk
		if end > len(trace) {
			end = len(trace)
		}
		sinks[c%len(sinks)].ConsumeBatch(trace[off:end])
	}
}

const shardChunk = 4096 // instructions per core turn in the interleaved feed

// benchSharded streams the recorded trace interleaved across all cores
// through a shard group, with a Drain per iteration modelling the
// engine's once-per-window barrier.
func benchSharded(b *testing.B, cfg power4.ShardConfig) {
	b.Helper()
	trace := benchDetailTrace(b)
	sut := benchStreamCore(b)
	g, err := power4.NewShardGroup(sut.Cores, sut.Hier, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	sinks := make([]isa.BatchSink, len(sut.Cores))
	for i := range sinks {
		sinks[i] = g.Sink(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replayInterleaved(trace, sinks, shardChunk)
		g.Drain()
	}
	b.StopTimer()
	b.ReportMetric(float64(len(trace))*float64(b.N)/b.Elapsed().Seconds(), "instr/s")
}

// BenchmarkDetailStreamSharded measures the production core-sharded
// detail path: the interleaved multi-core stream through per-core shard
// goroutines with the deterministic coherence merge, shard count
// auto-selected for the host (collapsing to the fused loop on 1-CPU
// hosts). Its honest fused baseline is BenchmarkDetailStreamFusedMulti —
// identical feed, no shard machinery; benchjson derives shard_speedup
// from that pair.
func BenchmarkDetailStreamSharded(b *testing.B) {
	benchSharded(b, power4.ShardConfig{})
}

// BenchmarkDetailStreamShardedForced forces one worker per simulated
// core regardless of host parallelism: ShardedForced vs FusedMulti is
// the cost of the shard machinery itself (queue handoffs, event
// recording, the merge) when the host cannot overlap the workers.
func BenchmarkDetailStreamShardedForced(b *testing.B) {
	benchSharded(b, power4.ShardConfig{Shards: 4})
}

// BenchmarkDetailStreamFusedMulti measures the fused loop over the same
// interleaved multi-core feed the sharded benchmarks consume — the
// fused reference for shard_speedup.
func BenchmarkDetailStreamFusedMulti(b *testing.B) {
	trace := benchDetailTrace(b)
	sut := benchStreamCore(b)
	sinks := make([]isa.BatchSink, len(sut.Cores))
	for i := range sinks {
		sinks[i] = sut.Cores[i]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replayInterleaved(trace, sinks, shardChunk)
	}
	b.StopTimer()
	b.ReportMetric(float64(len(trace))*float64(b.N)/b.Elapsed().Seconds(), "instr/s")
}

// Allocation ceilings for BenchmarkBuildReport. The pooling pass (lazy
// buffer-pool residency tables, retained ref-list capacity, headroom on
// first ref growth) took the end-to-end report from 392k allocs and
// 246 MB per op down to ~368k and ~199 MB; the ceilings sit between the
// two so a regression back toward the old numbers fails the benchmark
// instead of silently landing in the checked-in BENCH json.
const (
	buildReportAllocCeiling = 385_000
	buildReportBytesCeiling = 230 << 20
)

// BenchmarkBuildReport regenerates the complete paper-vs-measured report
// from a cold cache every iteration — one request-level run, one detail
// run, and the two cross-check variant runs, scheduled concurrently.
func BenchmarkBuildReport(b *testing.B) {
	b.ReportAllocs()
	cfg := quickCfg()
	cfg.DurationMS = 60_000
	cfg.RampMS = 20_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		FlushRuns()
		rep, err := Characterize(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(rep.Rows)), "rows")
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if allocs := (after.Mallocs - before.Mallocs) / uint64(b.N); allocs > buildReportAllocCeiling {
		b.Fatalf("BuildReport allocation regression: %d allocs/op, ceiling %d", allocs, buildReportAllocCeiling)
	}
	if bytes := (after.TotalAlloc - before.TotalAlloc) / uint64(b.N); bytes > buildReportBytesCeiling {
		b.Fatalf("BuildReport allocation regression: %d B/op, ceiling %d", bytes, buildReportBytesCeiling)
	}
}

// BenchmarkCrossChecks regenerates the paper's robustness checks: Trade6's
// similarly small GC overhead (Section 6) and the Sovereign JVM's higher
// CPU utilization at the same injection rate (footnote 2).
func BenchmarkCrossChecks(b *testing.B) {
	cfg := quickCfg()
	cfg.DurationMS = 60_000
	cfg.RampMS = 20_000
	for i := 0; i < b.N; i++ {
		cc, err := RunCrossChecks(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cc.Trade6GCShare, "trade6-gc-%")
		b.ReportMetric(100*cc.SovereignUtil, "sovereign-util-%")
		b.ReportMetric(100*cc.J9Util, "j9-util-%")
	}
}

// benchSweepGrid drives a page-size x detail-frac what-if grid through
// the artifact store, all cells concurrent, flushing the store each
// iteration so every request-level run is paid for inside the timed
// region. sims/cell is the number of request-level simulations actually
// executed per grid cell: 1.0 without split-key sharing, and
// distinct(RequestKey)/cells (here 1/6) with it — the tentpole's win.
func benchSweepGrid(b *testing.B, share bool) {
	cfg := quickCfg()
	cfg.DurationMS = 60_000
	cfg.RampMS = 20_000
	cells, err := core.Sweep{Base: cfg, Axes: []core.Axis{
		{Param: "heap_page", Values: []any{"4K", "16M"}},
		{Param: "detail_frac", Values: []any{0.002, 0.005, 0.01}},
	}}.Expand(64)
	if err != nil {
		b.Fatal(err)
	}
	prev := core.SetShareRequestLevel(share)
	defer core.SetShareRequestLevel(prev)
	before := core.SimCounts()["request-level"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FlushRuns()
		g := core.NewGroup(Parallelism())
		for _, cell := range cells {
			g.Go(func() error {
				art := ForConfig(cell.Cfg)
				if _, err := art.RequestLevel(); err != nil {
					return err
				}
				_, err := art.Detail()
				return err
			})
		}
		if err := g.Wait(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	sims := core.SimCounts()["request-level"] - before
	b.ReportMetric(float64(sims)/float64(len(cells)*b.N), "sims/cell")
	FlushRuns()
}

// BenchmarkSweepGridShared runs the 6-cell grid with split-key reuse on:
// one request-level simulation serves every cell.
func BenchmarkSweepGridShared(b *testing.B) { benchSweepGrid(b, true) }

// BenchmarkSweepGridUnshared is the pre-split foil: each cell re-buys its
// request-level run, as the unsplit cache did.
func BenchmarkSweepGridUnshared(b *testing.B) { benchSweepGrid(b, false) }

// benchLoadgenSource builds a loadgen source over jas2004-shaped rates.
func benchLoadgenSource(b testing.TB, rawSpec string) *loadgen.Source {
	b.Helper()
	spec, err := loadgen.Parse([]byte(rawSpec))
	if err != nil {
		b.Fatal(err)
	}
	src, err := spec.NewSource(loadgen.SourceConfig{
		IR:         30,
		Rates:      []float64{0.25, 0.25, 0.50, 0.60},
		ClassNames: []string{"NewOrder", "Browse", "Manage", "WorkOrder"},
		Seed:       7,
	})
	if err != nil {
		b.Fatal(err)
	}
	return src
}

// BenchmarkLoadgenWindow measures per-window arrival-stream generation on
// the worst-case spec shape: a sweep baseline under a bursty surge
// cohort, so every window pays for segment splitting across two cohorts,
// two RNG lanes, per-class Poisson draws, and the offset sort. This is
// the per-window cost the engine adds when a run is spec-driven.
func BenchmarkLoadgenWindow(b *testing.B) {
	src := benchLoadgenSource(b, `{"version":1,"cohorts":[`+
		`{"name":"base","share":3,"process":{"kind":"sweep","period_ms":60000,"amplitude":0.3}},`+
		`{"name":"surge","share":1,"process":{"kind":"burst","on_ms":2000,"off_ms":6000,"factor":3}}]}`)
	arrivals := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arrivals += len(src.Window(1000))
	}
	b.StopTimer()
	b.ReportMetric(float64(arrivals)/float64(b.N), "arrivals/window")
}

// benchTraceRamp caches the ramp-shaped detail stream the same way
// benchTrace caches the uniform one.
var benchTraceRamp []isa.Instr

// benchDetailTraceRamp records ~2M instructions whose request density
// follows a loadgen ramp (0.5x to 2x of nominal load): the per-window
// request count comes from the ramp source, so early windows are sparse
// and late windows dense, instead of the uniform one-request-per-33-ms
// cadence of benchDetailTrace.
func benchDetailTraceRamp(b testing.TB) []isa.Instr {
	b.Helper()
	if benchTraceRamp != nil {
		return benchTraceRamp
	}
	src := benchLoadgenSource(b, `{"version":1,"cohorts":[{"name":"rampers","process":`+
		`{"kind":"ramp","start_factor":0.5,"target_factor":2,"steps":8,"step_ms":5000}}]}`)
	sut, err := sim.BuildSUT(sim.DefaultSUTConfig(30))
	if err != nil {
		b.Fatal(err)
	}
	rec := &isa.Recorder{}
	reqs := 0
	for w := 0; len(rec.Trace) < 2_000_000; w++ {
		for _, a := range src.Window(1000) {
			now := float64(w)*1000 + a.OffsetMS
			if _, err := sut.Server.Execute(now, server.RequestType(a.Class), rec, 0.2); err != nil {
				b.Fatal(err)
			}
			reqs++
			if reqs%16 == 15 {
				sut.Server.EmitGC(rec, 20_000)
				sut.Server.EmitIdle(rec, 5_000)
			}
		}
	}
	benchTraceRamp = rec.Trace
	return benchTraceRamp
}

// BenchmarkDetailStreamRamp is BenchmarkDetailStream over the ramp-shaped
// stream: same fused replay, but the request density varies 4x
// across the trace, so stream-consumption cost is measured under the
// load shapes the generator produces rather than only uniform cadence.
func BenchmarkDetailStreamRamp(b *testing.B) {
	benchFusedTrace(b, benchDetailTraceRamp(b))
}
