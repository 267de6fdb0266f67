package main

import (
	"errors"
	"fmt"
	"reflect"
	"time"

	"jasworkload/internal/core"
	"jasworkload/internal/driver"
	"jasworkload/internal/hpm"
	"jasworkload/internal/isa"
	"jasworkload/internal/jvm"
	"jasworkload/internal/power4"
	"jasworkload/internal/server"
	"jasworkload/internal/sim"
	"jasworkload/internal/workload"
)

// The layer probe measures the layers below core by driving a SUT built
// with sim.BuildSUT for the workload's config from this benchmark, timing
// each call it makes into a layer's public functions:
//
//   - Engine.Step per window (timed from one window callback to the next),
//     with hpm.Multiplexer.Tick timed after each detail window;
//   - on a second SUT, the engine's request path by hand on the same
//     arrivals: Driver.Window, Heap.Collect when the heap asks for it,
//     Server.Execute with a nil sink, and inside it the pack's RunDB;
//   - the same path for the first detailWindows windows with the detail
//     fraction emitted into a counting isa sink, then into a recording
//     one, whose stream is replayed through a ShardGroup (with a Drain per
//     window) and through the fused Core.ConsumeBatch loop on fresh SUTs.
//
// The hand-driven path serves every arrival in its window: it has none of
// the engine's capacity queueing, so it times the layers, not the model.

// detailWindows bounds the hand-driven detail passes (the ramp plus a few
// steady windows), and replayLimit the instructions kept for the replays
// (about 100 MB), so the probe stays within a few seconds.
const (
	detailWindows = 24
	replayLimit   = 1 << 21
)

// probe holds one probe's tracer and the root span its spans hang from.
type probe struct {
	tr   *tracer
	o    *outcome
	root int
}

func newProbe(b *bench, o *outcome, name string) *probe {
	return &probe{tr: b.tr, o: o, root: b.tr.begin("probe."+name, 0, 0)}
}

func (p *probe) done() { p.tr.end(p.root) }

// check records a failed probe check as a failed output check.
func (p *probe) check(err error) {
	if err != nil {
		p.o.fail(fmt.Errorf("layer probe: %w", err))
	}
}

// sutConfig mirrors the SUT core assembles for a run config, so the probe
// drives the same system the pipeline does (checked by comparing the
// probe's engine windows with the pipeline's).
func sutConfig(cfg core.RunConfig) (sim.SUTConfig, *server.App, error) {
	w, err := workload.Get(cfg.Workload)
	if err != nil {
		return sim.SUTConfig{}, nil, err
	}
	scfg := sim.DefaultSUTConfig(cfg.IR)
	scfg.Seed = cfg.Seed
	scfg.HeapBytes = cfg.HeapBytes
	scfg.HeapPageSize = cfg.HeapPageSize
	scfg.BaselineCacheBytes = cfg.BaselineCacheBytes
	scfg.App = server.AppFor(w)
	scfg.Profile = w.TuneProfile(scfg.Profile)
	if cfg.Scale == core.ScaleQuick {
		scfg.Profile.NumMethods = 850
		scfg.Profile.WarmSet = 60
	}
	return scfg, scfg.App, nil
}

// engineConfig mirrors core's engine configuration for a run config.
func engineConfig(cfg core.RunConfig, detailFrac float64) sim.EngineConfig {
	canon := cfg.Canonical()
	ecfg := sim.DefaultEngineConfig()
	ecfg.Seed = cfg.Seed
	ecfg.DurationMS, ecfg.RampMS = canon.DurationMS, canon.RampMS
	ecfg.DetailFrac = detailFrac
	ecfg.Pipelined = core.Pipelined()
	ecfg.Sharded = core.Sharded()
	ecfg.Arrival = canon.Arrival
	return ecfg
}

// buildSUT times sim.BuildSUT.
func (p *probe) buildSUT(scfg sim.SUTConfig) (*sim.SUT, error) {
	id := p.tr.begin("sim.build_sut", p.root, 0)
	defer p.tr.end(id)
	return sim.BuildSUT(scfg)
}

// engineRun runs a fresh engine for cfg to completion, timing each
// Engine.Step from one window callback to the next; with hpm it also
// ticks a multiplexer over every standard group after each window. It
// returns the engine's windows.
func (p *probe) engineRun(cfg core.RunConfig, detailFrac float64, withHPM bool) ([]sim.WindowStats, error) {
	scfg, _, err := sutConfig(cfg)
	if err != nil {
		return nil, err
	}
	sut, err := p.buildSUT(scfg)
	if err != nil {
		return nil, err
	}
	eng, err := sim.NewEngine(engineConfig(cfg, detailFrac), sut)
	if err != nil {
		return nil, err
	}
	var mux *hpm.Multiplexer
	if withHPM {
		if mux, err = hpm.NewMultiplexer(eng.Source(), hpm.StandardGroups(), 1000); err != nil {
			return nil, err
		}
	}
	name := "sim.step.rl"
	if detailFrac > 0 {
		name = "sim.step.detail"
	}
	var tickErr error
	last := time.Now()
	eng.SetWindowFunc(func(sim.WindowStats) {
		now := time.Now()
		p.tr.record(name, p.root, 0, last, now)
		if mux != nil {
			if _, err := mux.Tick(); err != nil && tickErr == nil {
				tickErr = err
			}
			p.tr.record("hpm.tick", p.root, 0, now, time.Now())
		}
		last = time.Now()
	})
	ws, err := eng.Run()
	if err == nil {
		err = tickErr
	}
	return ws, err
}

// driveStats is what one hand-driven pass measured.
type driveStats struct {
	sut       *sim.SUT
	execNS    []int64 // per window: Server.Execute time summed
	requests  int
	gcs       int
	collectNS int64
	windowNS  int64 // Driver.Window time summed
	dbNS      int64 // the pack's RunDB time summed
	dbCalls   int
}

// emitter receives the detail stream of a hand-driven pass.
type emitter interface {
	sink(core int) isa.Sink
	endWindow()
}

// counter counts the detail stream it receives.
type counter struct{ isa.CountingSink }

func (c *counter) sink(int) isa.Sink { return &c.CountingSink }
func (c *counter) endWindow()        {}

// drive runs cfg's arrivals by hand for windows windows (0 = the whole
// run), timing the pack's RunDB inside each request. With em non-nil
// each request also emits its detail fraction into em.
func (p *probe) drive(cfg core.RunConfig, windows int, em emitter) (*driveStats, error) {
	scfg, app, err := sutConfig(cfg)
	if err != nil {
		return nil, err
	}
	st := &driveStats{}
	execName, detailFrac := "server.execute", 0.0
	if em != nil {
		execName, detailFrac = "server.execute_detail", cfg.Canonical().DetailFrac
	}
	curExec := 0
	runDB, dbName := app.RunDB, "db.script."+app.Name
	app.RunDB = func(ctx *workload.DBCtx, class int) error {
		t0 := time.Now()
		err := runDB(ctx, class)
		t1 := time.Now()
		p.tr.record(dbName, curExec, 0, t0, t1)
		st.dbNS += int64(t1.Sub(t0))
		st.dbCalls++
		return err
	}
	sut, err := p.buildSUT(scfg)
	if err != nil {
		return nil, err
	}
	st.sut = sut
	// As sim.NewEngine does for the paper's long-warmed system.
	sut.JIT.Precompile(0.98)
	sut.JIT.WarmUp(0.97)
	drv, err := driver.New(driver.Config{IR: sut.Config.IR, Rates: app.Rates(), Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	ecfg := engineConfig(cfg, detailFrac)
	if windows == 0 {
		windows = int(ecfg.DurationMS / ecfg.WindowMS)
	}
	collect := func(at float64) {
		t0 := time.Now()
		sut.Heap.Collect(at)
		t1 := time.Now()
		p.tr.record("jvm.collect", p.root, 0, t0, t1)
		st.collectNS += int64(t1.Sub(t0))
		st.gcs++
	}
	for w := 0; w < windows; w++ {
		winStart := float64(w) * ecfg.WindowMS
		t0 := time.Now()
		arrivals := drv.Window(ecfg.WindowMS)
		t1 := time.Now()
		p.tr.record("driver.window", p.root, 0, t0, t1)
		st.windowNS += int64(t1.Sub(t0))
		var execNS int64
		for _, a := range arrivals {
			at := winStart + a.OffsetMS
			if sut.Heap.NeedsGC() {
				collect(at)
			}
			var sink isa.Sink
			if em != nil {
				sink = em.sink(st.requests % len(sut.Cores))
			}
			for attempt := 0; ; attempt++ {
				curExec = p.tr.begin(execName, p.root, 0)
				t0 := time.Now()
				_, err := sut.Server.Execute(at, server.RequestType(a.Class), sink, detailFrac)
				execNS += int64(time.Since(t0))
				p.tr.end(curExec)
				if err == nil {
					break
				}
				if !errors.Is(err, jvm.ErrHeapFull) || attempt >= 2 {
					return nil, fmt.Errorf("window %d: %w", w, err)
				}
				collect(at)
				if attempt == 1 {
					sut.Heap.Compact(at)
				}
			}
			sut.Pool.TakeIOWaitMS()
			sut.DB.TakeLogWaitMS()
			st.requests++
		}
		st.execNS = append(st.execNS, execNS)
		if em != nil {
			em.endWindow()
		}
	}
	return st, nil
}

// streamRecorder keeps the detail stream the probe's requests emit, in
// order with the core each batch went to, up to limit instructions.
type streamRecorder struct {
	instrs  []isa.Instr
	chunks  []streamChunk
	windows []int // chunk count at the end of each window
	limit   int
}

type streamChunk struct{ core, lo, hi int }

func (r *streamRecorder) add(core int, b []isa.Instr) {
	if len(r.instrs)+len(b) > r.limit {
		return
	}
	lo := len(r.instrs)
	r.instrs = append(r.instrs, b...)
	r.chunks = append(r.chunks, streamChunk{core, lo, len(r.instrs)})
}

func (r *streamRecorder) endWindow() { r.windows = append(r.windows, len(r.chunks)) }

func (r *streamRecorder) sink(core int) isa.Sink { return coreSink{r, core} }

// coreSink is one simulated core's entry into a streamRecorder.
type coreSink struct {
	r    *streamRecorder
	core int
}

func (s coreSink) Consume(ins *isa.Instr)   { s.r.add(s.core, []isa.Instr{*ins}) }
func (s coreSink) ConsumeBatch(b isa.Batch) { s.r.add(s.core, b) }

// replay feeds a recorded stream through a ShardGroup (draining at every
// window boundary) and through the fused per-core loop on fresh SUTs, and
// requires identical counters from both.
func (p *probe) replay(cfg core.RunConfig, rec *streamRecorder) (sharded power4.Counters, stalls uint64, err error) {
	scfg, _, err := sutConfig(cfg)
	if err != nil {
		return sharded, 0, err
	}
	sutS, err := p.buildSUT(scfg)
	if err != nil {
		return sharded, 0, err
	}
	sg, err := power4.NewShardGroup(sutS.Cores, sutS.Hier, power4.ShardConfig{})
	if err != nil {
		return sharded, 0, err
	}
	id := p.tr.begin("power4.shard_replay", p.root, 0)
	next := 0
	for _, end := range rec.windows {
		for _, c := range rec.chunks[next:end] {
			sg.Sink(c.core).ConsumeBatch(rec.instrs[c.lo:c.hi])
		}
		next = end
		d := p.tr.begin("power4.drain", id, 0)
		sg.Drain()
		p.tr.end(d)
	}
	p.tr.end(id)
	for _, s := range sg.MergeStalls() {
		stalls += s
	}
	sg.Close()
	sharded = sutS.AggregateCounters()

	sutF, err := p.buildSUT(scfg)
	if err != nil {
		return sharded, 0, err
	}
	id = p.tr.begin("power4.fused_replay", p.root, 0)
	for _, c := range rec.chunks {
		sutF.Cores[c.core].ConsumeBatch(rec.instrs[c.lo:c.hi])
	}
	p.tr.end(id)
	if fused := sutF.AggregateCounters(); !reflect.DeepEqual(fused, sharded) {
		p.check(errors.New("sharded replay counters differ from the fused loop's"))
	}
	return sharded, stalls, nil
}

// mixDraws is how many MixSampler.Next draws the probe times.
const mixDraws = 1 << 22

// mixNext times isa.MixSampler.Next in chunks of draws.
func (p *probe) mixNext(seed int64) error {
	s, err := isa.NewMixSampler(isa.Jas2004UserMix(), seed)
	if err != nil {
		return err
	}
	var acc int
	const chunk = 1 << 18
	for done := 0; done < mixDraws; done += chunk {
		id := p.tr.begin("isa.next", p.root, 0)
		for i := 0; i < chunk; i++ {
			acc += int(s.Next())
		}
		p.tr.end(id)
	}
	mixSink = acc
	return nil
}

// mixSink keeps the timed draws from being optimized away.
var mixSink int

// probeReport drives the report workload's layers for its config: both
// engines, the hand-driven request path (and Trade6's, for the cross-check
// pack), the detail stream and its replays, and the mix sampler.
func probeReport(b *bench, cfg core.RunConfig, o *outcome) error {
	p := newProbe(b, o, "report")
	defer p.done()

	rlWins, err := p.engineRun(cfg, 0, false)
	if err != nil {
		return fmt.Errorf("request-level engine: %w", err)
	}
	rl, err := core.ForConfig(cfg).RequestLevel()
	if err != nil {
		return err
	}
	p.check(sameWindows("request-level", rlWins, rl.Windows()))
	detWins, err := p.engineRun(cfg, cfg.Canonical().DetailFrac, true)
	if err != nil {
		return fmt.Errorf("detail engine: %w", err)
	}
	det, err := core.ForConfig(cfg).Detail()
	if err != nil {
		return err
	}
	p.check(sameWindows("detail", detWins, det.Engine.Windows()))

	d1, err := p.drive(cfg, 0, nil)
	if err != nil {
		return fmt.Errorf("request path: %w", err)
	}
	emitted := &counter{}
	d2, err := p.drive(cfg, detailWindows, emitted)
	if err != nil {
		return fmt.Errorf("detail request path: %w", err)
	}
	rec := &streamRecorder{limit: replayLimit}
	if _, err := p.drive(cfg, detailWindows, rec); err != nil {
		return fmt.Errorf("recording the detail stream: %w", err)
	}
	t6 := cfg
	t6.Workload = "trade6"
	d6, err := p.drive(t6, 0, nil)
	if err != nil {
		return fmt.Errorf("trade6 request path: %w", err)
	}
	ctr, stalls, err := p.replay(cfg, rec)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if err := p.mixNext(cfg.Seed); err != nil {
		return err
	}

	spans := b.tr.snapshot()
	requestLayers(o, spans, map[string]*driveStats{"jas2004": d1})
	var rlNS, detNS int64
	for w := 0; w < detailWindows; w++ {
		rlNS += d1.execNS[w]
		detNS += d2.execNS[w]
	}
	o.layer["server.emit_ns_per_instr"] = float64(detNS-rlNS) / float64(emitted.Total)
	o.layer["isa.detail_instr"] = float64(emitted.Total)
	o.layer["isa.next_ns"] = sum(spanDurations(spans, "isa.next")) / mixDraws
	o.layer["sim.step_ms.detail"] = mean(spanDurations(spans, "sim.step.detail")) / 1e6
	o.layer["hpm.tick_us"] = mean(spanDurations(spans, "hpm.tick")) / 1e3
	o.layer["db.script_us.trade6"] = float64(d6.dbNS) / float64(d6.dbCalls) / 1e3
	replayed := float64(len(rec.instrs))
	o.layer["power4.shard_ns_per_instr"] = sum(spanDurations(spans, "power4.shard_replay")) / replayed
	o.layer["power4.fused_ns_per_instr"] = sum(spanDurations(spans, "power4.fused_replay")) / replayed
	o.layer["power4.drain_ms"] = sum(spanDurations(spans, "power4.drain")) / 1e6
	o.layer["power4.merge_stalls"] = float64(stalls)
	o.layer["power4.cpi"] = float64(ctr.Get(power4.EvCycles)) / float64(ctr.Get(power4.EvInstCompleted))
	o.meta["probe_replayed_instr"] = len(rec.instrs)
	o.meta["probe_replayed_windows"] = len(rec.windows)
	return nil
}

// probeSweep drives the sweep workload's layers: for each pack, the
// request-level engine and the hand-driven request path at one grid heap
// and the run's first config seed.
func probeSweep(b *bench, cells []core.Cell, o *outcome) error {
	p := newProbe(b, o, "sweep")
	defer p.done()
	drives := map[string]*driveStats{}
	for _, cell := range cells {
		if cell.Cfg.HeapBytes != sweepProbeHeap || cell.Cfg.Seed != cells[0].Cfg.Seed {
			continue
		}
		wins, err := p.engineRun(cell.Cfg, 0, false)
		if err != nil {
			return fmt.Errorf("%s engine: %w", cell.Label, err)
		}
		rl, err := core.ForConfig(cell.Cfg).RequestLevel()
		if err != nil {
			return err
		}
		p.check(sameWindows(cell.Label, wins, rl.Windows()))
		d, err := p.drive(cell.Cfg, 0, nil)
		if err != nil {
			return fmt.Errorf("%s request path: %w", cell.Label, err)
		}
		drives[cell.Cfg.Workload] = d
	}
	if len(drives) != len(sweepPacks) {
		return fmt.Errorf("probed %d cells at %d MB, want one per pack", len(drives), sweepProbeHeap>>20)
	}
	requestLayers(o, b.tr.snapshot(), drives)
	return nil
}

// sweepProbeHeap is the grid heap the sweep probe drives, mid-axis.
const sweepProbeHeap = 256 << 20

// requestLayers fills the request-path metrics from the hand-driven
// passes, keyed by pack, and the engine and SUT-build spans.
func requestLayers(o *outcome, spans []span, drives map[string]*driveStats) {
	var wal uint64
	var hit float64
	var requests, gcs int
	var execNS, windowNS, collectNS int64
	var windows int
	for pack, d := range drives {
		wal += d.sut.DB.WAL().Appended()
		hit += d.sut.Pool.HitRate()
		requests += d.requests
		gcs += d.gcs
		for _, ns := range d.execNS {
			execNS += ns
		}
		windows += len(d.execNS)
		windowNS += d.windowNS
		collectNS += d.collectNS
		o.layer["db.script_us."+pack] = float64(d.dbNS) / float64(d.dbCalls) / 1e3
	}
	o.layer["sim.step_ms.rl"] = mean(spanDurations(spans, "sim.step.rl")) / 1e6
	o.layer["sim.build_sut_ms"] = mean(spanDurations(spans, "sim.build_sut")) / 1e6
	o.layer["driver.window_us"] = float64(windowNS) / float64(windows) / 1e3
	o.layer["server.execute_us"] = float64(execNS) / float64(requests) / 1e3
	o.layer["server.requests"] = float64(requests)
	o.layer["db.wal_records"] = float64(wal)
	o.layer["db.pool_hit_rate"] = hit / float64(len(drives))
	if gcs > 0 {
		o.layer["jvm.collect_ms"] = float64(collectNS) / float64(gcs) / 1e6
	}
	o.layer["jvm.gcs"] = float64(gcs)
}

// sameWindows requires the probe's engine to have produced the
// pipeline's windows, proving the probe drove the same system.
func sameWindows(what string, got, want []sim.WindowStats) error {
	if fmt.Sprintf("%v", got) != fmt.Sprintf("%v", want) {
		return fmt.Errorf("%s: probe engine windows differ from the pipeline's", what)
	}
	return nil
}
