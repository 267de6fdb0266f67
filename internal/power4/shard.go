package power4

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"jasworkload/internal/isa"
)

// This file shards the detail window across simulated cores: each core's
// slice of the interleaved instruction stream runs on its own worker
// goroutine, and the coherence traffic — directory lookups, invalidations,
// LARX/STCX reservation arbitration — is emitted as events into per-shard
// queues and resolved by one deterministic merge goroutine:
//
//	                  ┌─ worker 0 (cores 0,S,2S…: branch + core-local memory) ─┐
//	producer ─ demux ─┼─ worker 1 (cores 1,S+1,…)                              ┼─ merge ─ demux ─ accountants
//	     │            └─ worker S-1 …                                          ┘    ▲
//	     └────────────────────── order ring (global feed sequence) ─────────────────┘
//
// Why the result is bit-identical to the fused loop at any shard count,
// queue depth, or GOMAXPROCS:
//
//  1. Core-private state (L1s, MMU/ERATs, predictors, prefetcher,
//     translation memo, fast-path registers, the LARX reservation
//     register) evolves independently of every Hierarchy call's RESULT:
//     Load/FetchInst return a DataSource consumed only by cycle/counter
//     accounting, Store's result is unused, and ReservationLost only
//     decides the aStcxOK annotation. So each core's model half can run
//     ahead on its own goroutine, recording which Hierarchy calls it
//     would have made — with their operands, which depend only on
//     core-private state — without knowing their answers.
//  2. Shared state (L2s, L3s, the coherence directory, the reservation
//     ledger) is mutated only by the merge goroutine, which applies the
//     recorded events through the unchanged Hierarchy methods in the
//     exact global order the fused loop would have: the producer stamps
//     every batch with its position in the feed sequence (the order
//     ring), and the merge consumes batches in that sequence. The feed
//     sequence is the engine's serialization of (cycle, coreID, seq) —
//     requests are emitted one core at a time in simulated-time order —
//     so the merge's total order is the fused loop's total order.
//  3. Results are back-annotated into the batch (load/fetch sources,
//     STCX success), and the accounting stage replays the fused loop's
//     exact charge sequence per core from those annotations, through the
//     acctState/stageAccount machinery in stage.go.
//
// Queues only reorder WHEN work executes, never WHAT it computes, so the
// counters are bit-equal by construction; TestShardedEquivalence sweeps
// shard counts and queue depths against the fused reference to enforce
// it.

// cohEvent is one recorded Hierarchy call: the kind, the real-address
// operand, and the index of the instruction annotation that receives the
// call's result (evStore and the prefetch fills have no result; their idx
// is unused).
type cohEvent struct {
	ra   uint64
	idx  int32
	kind uint8
}

// Coherence event kinds, in the vocabulary of the Hierarchy methods the
// merge applies.
const (
	evFetch    uint8 = iota // FetchInst(ra) -> collapsed I-source annotation
	evLoad                  // Load(ra) -> DataSource annotation
	evStore                 // Store(ra), result unused
	evPrefNear              // PrefetchFill(ra, deep=false)
	evPrefDeep              // PrefetchFill(ra, deep=true)
	evResv                  // ReservationLost(line) -> aStcxOK annotation
)

// shardBatch is the unit of work flowing through the shard group: a
// pooled, core-tagged annotated batch plus the coherence events its
// core-local stage recorded. A batch with a non-nil drain channel is a
// barrier marker.
type shardBatch struct {
	isa.Annotated[annot]
	ev    []cohEvent
	drain chan struct{}
}

// ShardConfig sizes the core-sharded detail group.
type ShardConfig struct {
	// Shards is the number of worker goroutines (simulated cores are
	// assigned round-robin). 0 selects automatically: one worker per
	// simulated core up to GOMAXPROCS, collapsing to the fused loop on
	// single-CPU hosts where sharding could only add overhead. Values
	// above the core count are clamped — a shard with no cores would
	// never receive work.
	Shards int
	// BatchCap is the number of instructions per batch (default
	// isa.DefaultBatchCap).
	BatchCap int
	// Depth is the queue capacity in batches on every producer→worker,
	// worker→merge, and merge→accountant link (default
	// DefaultShardDepth). Results are bit-identical at any depth; only
	// the slack between stages changes.
	Depth int
}

// DefaultShardDepth is the default per-link queue depth in batches. It is
// generous because the merge consumes worker queues in global feed order:
// slack on the not-next queues is what lets the other workers keep
// running while the merge waits for the ordered head, so shallow queues
// convert ordinary skew straight into merge stalls.
const DefaultShardDepth = 8

// shardStatSlots bounds the per-shard-index merge-stall counters exported
// process-wide (shard indices are folded into the slots).
const shardStatSlots = 32

var globalMergeStalls [shardStatSlots]atomic.Uint64

// ShardMergeStalls reports, per shard index, how many times any shard
// group's merge goroutine had to wait on that shard's worker queue for
// the next batch in global order (cumulative, process-wide). A hot slot
// names the worker that runs behind the merge front — the signal for
// retuning queue depths or shard counts.
func ShardMergeStalls() []uint64 {
	out := make([]uint64, shardStatSlots)
	for i := range out {
		out[i] = globalMergeStalls[i].Load()
	}
	return out
}

// AutoShards reports the shard count the auto mode would pick for a
// system with the given core count: one worker per simulated core, capped
// at GOMAXPROCS, and 0 — collapse to the fused loop — when the host has
// no parallelism to shard onto.
func AutoShards(cores int) int {
	p := runtime.GOMAXPROCS(0)
	if p <= 1 || cores < 1 {
		return 0
	}
	if cores < p {
		return cores
	}
	return p
}

// ShardGroup runs the detail model for a set of cores over a shared
// Hierarchy, sharded across per-core worker goroutines with a
// deterministic coherence merge. Feed instructions through the per-core
// sinks from Sink; call Drain to publish counters at a consistent point;
// Close stops the goroutines. The group is the sole consumer of its cores
// while attached: feeding a member core directly between Drain and Close
// would race with the workers and desynchronize the accounting copy.
type ShardGroup struct {
	cores []*Core
	hier  *Hierarchy
	cfg   ShardConfig

	shards int
	in     []*isa.Ring[*shardBatch] // producer -> worker w
	mid    []*isa.Ring[*shardBatch] // worker w -> merge
	acctIn []*isa.Ring[*shardBatch] // merge -> accountant w
	order  *isa.Ring[int]           // global feed sequence: which worker's batch is next
	free   *isa.Pool[*shardBatch]
	acct   []acctState
	sinks  []shardSink
	cur    *shardBatch
	stalls []uint64 // written by the merge goroutine only; read after Drain/Close
	wg     sync.WaitGroup

	direct bool // collapsed onto the fused loop (no host parallelism)
	closed bool
}

// NewShardGroup starts the shard workers, merge, and accountants for
// cores over hier. The cores' current counter state is carried in, so
// attaching mid-run continues from their totals.
func NewShardGroup(cores []*Core, hier *Hierarchy, cfg ShardConfig) (*ShardGroup, error) {
	if len(cores) == 0 || hier == nil {
		return nil, fmt.Errorf("power4: shard group needs cores and a hierarchy")
	}
	if cfg.BatchCap <= 0 {
		cfg.BatchCap = isa.DefaultBatchCap
	}
	if cfg.Depth <= 0 {
		cfg.Depth = DefaultShardDepth
	}
	shards := cfg.Shards
	if shards <= 0 {
		shards = AutoShards(len(cores))
	}
	if shards > len(cores) {
		shards = len(cores)
	}
	g := &ShardGroup{
		cores:  cores,
		hier:   hier,
		cfg:    cfg,
		shards: shards,
		acct:   make([]acctState, len(cores)),
		sinks:  make([]shardSink, len(cores)),
		direct: shards <= 0,
	}
	for i := range cores {
		g.sinks[i] = shardSink{g: g, core: i}
	}
	if g.direct {
		// All model state stays on the cores; the sinks dispatch straight
		// into the fused loop.
		return g, nil
	}
	for i := range cores {
		g.acct[i].loadFrom(cores[i])
	}
	g.in = make([]*isa.Ring[*shardBatch], shards)
	g.mid = make([]*isa.Ring[*shardBatch], shards)
	g.acctIn = make([]*isa.Ring[*shardBatch], shards)
	g.stalls = make([]uint64, shards)
	for w := 0; w < shards; w++ {
		g.in[w] = isa.NewRing[*shardBatch](cfg.Depth)
		g.mid[w] = isa.NewRing[*shardBatch](cfg.Depth)
		g.acctIn[w] = isa.NewRing[*shardBatch](cfg.Depth)
	}
	// The order ring must never fill while a worker queue can still
	// accept: the producer enqueues the order token and the batch as one
	// logical step, so give the order ring room for every batch slot that
	// can exist plus the per-Drain markers.
	slots := 1 + shards*(3*cfg.Depth+2) + 1
	g.order = isa.NewRing[int](slots + shards)
	g.free = isa.NewPool(slots, func() *shardBatch {
		return &shardBatch{
			Annotated: isa.Annotated[annot]{
				Ins: make([]isa.Instr, 0, cfg.BatchCap),
				Ann: make([]annot, 0, cfg.BatchCap),
			},
			ev: make([]cohEvent, 0, cfg.BatchCap/4+8),
		}
	})
	g.wg.Add(2*shards + 1)
	for w := 0; w < shards; w++ {
		go g.worker(w)
		go g.accountant(w)
	}
	go g.merge()
	return g, nil
}

// Sink returns the stream entry point for one core; it implements
// isa.Sink, isa.BatchSink and CoreID, and is stable across calls.
func (g *ShardGroup) Sink(core int) isa.BatchSink { return &g.sinks[core] }

// Mode reports the schedule the group selected: "sharded" (per-core
// workers with the coherence merge) or "direct" (collapsed onto the fused
// loop because the host has no CPU to shard onto).
func (g *ShardGroup) Mode() string {
	if g.direct {
		return "direct"
	}
	return "sharded"
}

// Shards reports the number of worker goroutines (0 in direct mode).
func (g *ShardGroup) Shards() int { return g.shards }

// MergeStalls returns this group's per-shard merge-stall counts: how many
// times the merge had to wait on shard w for the next batch in global
// order. Valid after a Drain or Close barrier.
func (g *ShardGroup) MergeStalls() []uint64 {
	out := make([]uint64, len(g.stalls))
	copy(out, g.stalls)
	return out
}

// shardSink is the per-core front end.
type shardSink struct {
	g    *ShardGroup
	core int
}

// CoreID reports the core this sink feeds (emitter affinity).
func (s *shardSink) CoreID() int { return s.core }

// Consume implements isa.Sink.
func (s *shardSink) Consume(ins *isa.Instr) { s.g.feedOne(s.core, ins) }

// ConsumeBatch implements isa.BatchSink.
func (s *shardSink) ConsumeBatch(b isa.Batch) { s.g.feed(s.core, b) }

// fill returns the current producer batch for core, sealing first when
// the stream switched cores (batches are single-core runs).
func (g *ShardGroup) fill(core int) *shardBatch {
	if g.cur != nil && g.cur.Core != core {
		g.seal()
	}
	if g.cur == nil {
		sb := g.free.Get()
		sb.Core = core
		g.cur = sb
	}
	return g.cur
}

// feed delivers a caller batch, copying it into pooled batches (the
// caller reuses its backing array, so the copy is mandatory).
func (g *ShardGroup) feed(core int, b isa.Batch) {
	if g.direct {
		g.cores[core].ConsumeBatch(b)
		return
	}
	for len(b) > 0 {
		sb := g.fill(core)
		room := g.cfg.BatchCap - len(sb.Ins)
		if room > len(b) {
			room = len(b)
		}
		sb.Ins = append(sb.Ins, b[:room]...)
		b = b[room:]
		if len(sb.Ins) >= g.cfg.BatchCap {
			g.seal()
		}
	}
}

func (g *ShardGroup) feedOne(core int, ins *isa.Instr) {
	if g.direct {
		g.cores[core].Consume(ins)
		return
	}
	sb := g.fill(core)
	sb.Ins = append(sb.Ins, *ins)
	if len(sb.Ins) >= g.cfg.BatchCap {
		g.seal()
	}
}

// seal stamps the current batch into the global feed sequence and hands
// it to its core's worker. The order token and the batch are enqueued
// together: the order ring tells the merge WHICH worker's queue holds the
// next batch in global order, and the per-worker FIFO guarantees it is
// THIS batch.
func (g *ShardGroup) seal() {
	sb := g.cur
	g.cur = nil
	if sb == nil {
		return
	}
	if len(sb.Ins) == 0 {
		g.free.Put(sb)
		return
	}
	sb.SyncAnn()
	w := sb.Core % g.shards
	g.order.Send(w)
	g.in[w].Send(sb)
}

// Drain is the window barrier: it seals the partial batch, pushes one
// marker through every worker→merge→accountant path, and returns once
// every accountant has published its cores' counters and fractional
// accumulators back onto the Core structs. The happens-before chain
// through the markers also makes all worker-side state (unmapped counts,
// cache contents) and all merge-side state (directory, stall counts)
// visible to the caller.
func (g *ShardGroup) Drain() {
	if g.direct {
		return // counters already live on the cores
	}
	g.seal()
	done := make(chan struct{}, g.shards)
	for w := 0; w < g.shards; w++ {
		m := &shardBatch{drain: done}
		m.Core = w // routes the marker to accountant w
		g.order.Send(w)
		g.in[w].Send(m)
	}
	for i := 0; i < g.shards; i++ {
		<-done
	}
}

// Close drains the group and stops every goroutine. The sinks must not
// be fed after Close.
func (g *ShardGroup) Close() {
	if g.closed {
		return
	}
	g.closed = true
	g.Drain()
	if g.direct {
		return
	}
	for _, r := range g.in {
		r.Close()
	}
	g.order.Close()
	g.wg.Wait()
}

// worker runs the core-local half of the model — branch predictors plus
// the translation/cache stage with Hierarchy calls deferred as events —
// for every core assigned to shard w, in that shard's feed order.
func (g *ShardGroup) worker(w int) {
	defer g.wg.Done()
	for {
		sb, ok := g.in[w].Recv()
		if !ok {
			g.mid[w].Close()
			return
		}
		if sb.drain == nil {
			c := g.cores[sb.Core]
			c.stageBranch(sb.Ins, sb.Ann)
			c.stageMemoryShard(sb.Ins, sb.Ann, &sb.ev)
		}
		g.mid[w].Send(sb)
	}
}

// merge consumes batches in the global feed sequence, applying each
// batch's coherence events through the unchanged Hierarchy methods and
// back-annotating their results. It is the only goroutine that touches
// shared coherence state, so the directory evolves exactly as under the
// fused loop.
func (g *ShardGroup) merge() {
	defer g.wg.Done()
	for {
		w, ok := g.order.Recv()
		if !ok {
			for _, r := range g.acctIn {
				r.Close()
			}
			return
		}
		sb, ok := g.mid[w].TryRecv()
		if !ok {
			// The ordered head isn't ready: shard w runs behind the merge
			// front. Count the stall, then wait for it.
			g.stalls[w]++
			globalMergeStalls[w%shardStatSlots].Add(1)
			if sb, ok = g.mid[w].Recv(); !ok {
				for _, r := range g.acctIn {
					r.Close()
				}
				return
			}
		}
		if sb.drain == nil {
			g.apply(sb)
		}
		g.acctIn[sb.Core%g.shards].Send(sb)
	}
}

// apply replays one batch's coherence events against the Hierarchy in
// recorded order, writing results into the annotations the accounting
// stage reads.
func (g *ShardGroup) apply(sb *shardBatch) {
	core := sb.Core
	for _, e := range sb.ev {
		switch e.kind {
		case evFetch:
			var f uint32
			switch g.hier.FetchInst(core, e.ra) {
			case SrcL2:
				f = iSrcL2 << iSrcShift
			case SrcL3:
				f = iSrcL3 << iSrcShift
			default:
				f = iSrcMem << iSrcShift
			}
			sb.Ann[e.idx].flags |= f
		case evLoad:
			sb.Ann[e.idx].flags |= uint32(g.hier.Load(core, e.ra)) << dSrcShift
		case evStore:
			g.hier.Store(core, e.ra)
		case evPrefNear:
			g.hier.PrefetchFill(core, e.ra, false)
		case evPrefDeep:
			g.hier.PrefetchFill(core, e.ra, true)
		case evResv:
			if !g.hier.ReservationLost(core, e.ra) {
				sb.Ann[e.idx].flags |= aStcxOK
			}
		}
	}
}

// accountant replays the fused loop's cycle accounting for every core
// assigned to shard w, from the merged annotations, in feed order.
// Markers publish the accounting state back onto the cores.
func (g *ShardGroup) accountant(w int) {
	defer g.wg.Done()
	for {
		sb, ok := g.acctIn[w].Recv()
		if !ok {
			return
		}
		if sb.drain != nil {
			for c := w; c < len(g.cores); c += g.shards {
				g.acct[c].storeTo(g.cores[c])
			}
			sb.drain <- struct{}{}
			continue
		}
		g.cores[sb.Core].stageAccount(sb.Ins, sb.Ann, &g.acct[sb.Core])
		sb.Reset()
		sb.ev = sb.ev[:0]
		g.free.Put(sb)
	}
}

// stageMemoryShard runs the translation/cache half of the model over a
// batch with the Hierarchy calls deferred: every core-private structure is
// touched in the fused loop's order, and every shared-state call is
// recorded — with operands computed from core-private state only — for
// the merge to apply in global order.
func (c *Core) stageMemoryShard(ins []isa.Instr, ann []annot, ev *[]cohEvent) {
	for i := range ins {
		in := &ins[i]
		an := &ann[i]
		if c.fastI && !c.noFast && in.PC>>7 == c.lastIPC>>7 {
			an.flags |= aFastI
			c.lastIPC = in.PC
		} else {
			c.shardFetch(i, in, an, ev)
		}
		switch in.Class {
		case isa.ClassLoad:
			c.shardLoad(i, in, an, ev)
		case isa.ClassStore:
			c.shardStore(in, an, ev)
		case isa.ClassLarx:
			c.shardLoad(i, in, an, ev)
			c.reservation = in.EA >> 7
			c.hasResv = true
		case isa.ClassStcx:
			if c.hasResv && c.reservation == in.EA>>7 {
				if tr, mapped := c.translate(in.EA); mapped {
					// Whether another chip's store broke the reservation is
					// the merge's call — it owns the ledger.
					*ev = append(*ev, cohEvent{ra: tr.RA >> 7, idx: int32(i), kind: evResv})
				} else {
					an.flags |= aStcxOK
				}
			}
			c.hasResv = false
			c.shardStore(in, an, ev)
		}
	}
}

// shardFetch is fetch's structural half with FetchInst deferred.
func (c *Core) shardFetch(i int, in *isa.Instr, an *annot, ev *[]cohEvent) {
	tr, ok := c.translate(in.PC)
	if !ok {
		c.unmapped++
		c.fastI = false
		an.flags |= aUnmappedI
		return
	}
	c.fastI = true
	c.lastIPC = in.PC
	res := c.mmu.Inst(tr)
	if res.ERATMiss {
		an.flags |= aIERATMiss
	}
	if res.TLBMiss {
		an.flags |= aITLBMiss
	}
	if res.SLBMiss {
		an.flags |= aISLBMiss
	}
	line := tr.RA >> 7
	if c.l1i.Lookup(tr.RA) {
		an.flags |= aL1IHit
		c.lastILine = line
		return
	}
	if line == c.lastILine+1 {
		an.flags |= aIHideSeq
	}
	c.lastILine = line
	*ev = append(*ev, cohEvent{ra: tr.RA, idx: int32(i), kind: evFetch})
	c.l1i.Insert(tr.RA)
}

// shardLoad is load's structural half with PrefetchFill and Load deferred.
func (c *Core) shardLoad(i int, in *isa.Instr, an *annot, ev *[]cohEvent) {
	if c.fastL && !c.noFast && in.EA>>7 == c.lastLEA>>7 && c.fastD && in.EA>>12 == c.lastDEA>>12 {
		an.flags |= aFastL
		c.sinceMiss++
		if c.sinceMiss > 12 {
			c.burst = 0
		}
		return
	}
	tr, ok := c.memTranslateData(in, an)
	if !ok {
		return
	}
	line := tr.RA >> 7
	if c.l1d.Lookup(tr.RA) {
		an.flags |= aL1DHit
		res := c.pref.OnAccess(line, false)
		if res.Covered {
			an.flags |= aCovered
			c.shardDrainPrefetch(tr.RA, an, ev)
			c.fastL = false
		} else {
			c.fastL = true
			c.lastLEA = in.EA
		}
		c.sinceMiss++
		if c.sinceMiss > 12 {
			c.burst = 0
		}
		return
	}
	c.fastL = false
	if c.sinceMiss <= 12 {
		c.burst++
	} else {
		c.burst = 1
	}
	c.sinceMiss = 0
	an.burst = uint32(c.burst)
	pres := c.pref.OnAccess(line, true)
	if pres.Allocated {
		an.flags |= aPrefAlloc
	}
	c.shardDrainPrefetch(tr.RA, an, ev)
	*ev = append(*ev, cohEvent{ra: tr.RA, idx: int32(i), kind: evLoad})
	c.l1d.Insert(tr.RA)
	if pres.Covered {
		an.flags |= aCovered
	}
}

// shardStore is store's structural half with Store deferred.
func (c *Core) shardStore(in *isa.Instr, an *annot, ev *[]cohEvent) {
	tr, ok := c.memTranslateData(in, an)
	if !ok {
		return
	}
	if c.l1d.Probe(tr.RA) {
		an.flags |= aStoreHit
	}
	*ev = append(*ev, cohEvent{ra: tr.RA, kind: evStore})
}

// shardDrainPrefetch is drainPrefetch's structural half with the L2-side
// fills deferred; the L1 fills are core-private and happen here,
// preserving their order relative to the L1 lookups around them.
func (c *Core) shardDrainPrefetch(ra uint64, an *annot, ev *[]cohEvent) {
	l1, l2, _ := c.pref.Take()
	an.prefL1, an.prefL2 = uint8(l1), uint8(l2)
	if l1 == 0 && l2 == 0 {
		return
	}
	for i := uint64(1); i <= l1; i++ {
		c.l1d.Insert(ra + i*128)
	}
	for i := uint64(1); i <= l2; i++ {
		kind := evPrefNear
		if i > 2 {
			kind = evPrefDeep
		}
		*ev = append(*ev, cohEvent{ra: ra + i*128, kind: kind})
	}
}
