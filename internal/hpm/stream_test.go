package hpm

import (
	"math/rand"
	"reflect"
	"testing"

	"jasworkload/internal/isa"
	"jasworkload/internal/mem"
	"jasworkload/internal/power4"
)

func newStreamRig(t *testing.T, windowInstr uint64) (*StreamMux, *fakeSource) {
	t.Helper()
	src := &fakeSource{}
	mux, err := NewMultiplexer(src, StandardGroups(), 100)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := NewStreamMux(mux, windowInstr)
	if err != nil {
		t.Fatal(err)
	}
	return sm, src
}

func TestNewStreamMuxValidation(t *testing.T) {
	if _, err := NewStreamMux(nil, 100); err == nil {
		t.Fatal("nil multiplexer accepted")
	}
	mux, err := NewMultiplexer(&fakeSource{}, StandardGroups(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewStreamMux(mux, 0); err == nil {
		t.Fatal("zero window accepted")
	}
}

// TestStreamMuxRotation: one rotation per windowInstr instructions,
// regardless of how the stream is chopped into Consume/ConsumeBatch
// deliveries.
func TestStreamMuxRotation(t *testing.T) {
	sm, _ := newStreamRig(t, 1000)
	ins := isa.Instr{Class: isa.ClassALU}
	for i := 0; i < 2500; i++ {
		sm.Consume(&ins)
	}
	if got := sm.Mux().Windows(); got != 2 {
		t.Fatalf("per-instruction: %d windows after 2500 instr / 1000 window, want 2", got)
	}

	sm2, _ := newStreamRig(t, 1000)
	batch := make(isa.Batch, 250)
	for i := 0; i < 10; i++ {
		sm2.ConsumeBatch(batch)
	}
	if got := sm2.Mux().Windows(); got != 2 {
		t.Fatalf("batched: %d windows after 2500 instr / 1000 window, want 2", got)
	}
	if sm.Err() != nil || sm2.Err() != nil {
		t.Fatal(sm.Err(), sm2.Err())
	}
}

// coreSource adapts a live simulated core to CounterSource.
type coreSource struct{ c *power4.Core }

func (s coreSource) Counters() power4.Counters { return s.c.Counters() }

// TestStreamMuxShardedParity: a StreamMux multiplexing HPM groups over
// the core-sharded detail group must produce byte-identical samples to
// one multiplexing over the fused loop, at every batch size and queue
// depth. The composition contract is the engine's: deliver the batch to
// the model, drain the group (counters publish only at barriers), then
// advance the mux so due rotations sample the drained counters.
func TestStreamMuxShardedParity(t *testing.T) {
	layout, err := mem.NewLayout(mem.DefaultLayoutConfig())
	if err != nil {
		t.Fatal(err)
	}
	// A compact stream with enough class variety to move every group's
	// counters: line-local ALU runs, page-local loads, stores, branches.
	rng := rand.New(rand.NewSource(42))
	trace := make([]isa.Instr, 0, 40_000)
	pc, ea := layout.JITCode.Base, layout.JavaHeap.Base
	for len(trace) < 40_000 {
		switch r := rng.Intn(10); {
		case r < 5:
			trace = append(trace, isa.Instr{Class: isa.ClassALU, PC: pc})
		case r < 7:
			ea = layout.JavaHeap.Base + uint64(rng.Intn(1<<14))*8
			trace = append(trace, isa.Instr{Class: isa.ClassLoad, PC: pc, EA: ea, Size: 8})
		case r < 8:
			trace = append(trace, isa.Instr{Class: isa.ClassStore, PC: pc, EA: ea, Size: 8})
		default:
			taken := rng.Intn(2) == 0
			trace = append(trace, isa.Instr{Class: isa.ClassBranchCond, PC: pc, Taken: taken, Target: pc + 16})
		}
		pc += 4
	}
	const window = 2048

	type variant struct {
		name string
		cfg  *power4.ShardConfig // nil = fused
	}
	variants := []variant{
		{"fused", nil},
		{"sharded cap=7 depth=2", &power4.ShardConfig{Shards: 1, BatchCap: 7, Depth: 2}},
		{"sharded cap=256 depth=4", &power4.ShardConfig{Shards: 1, BatchCap: 256, Depth: 4}},
	}
	type result struct {
		windows int
		samples map[string][]Sample
	}
	results := make([]result, len(variants))
	for vi, v := range variants {
		h, err := power4.NewHierarchy(power4.DefaultTopologyConfig())
		if err != nil {
			t.Fatal(err)
		}
		c, err := power4.NewCore(power4.DefaultCoreConfig(0), h, layout.Space)
		if err != nil {
			t.Fatal(err)
		}
		var sink isa.BatchSink = c
		drain := func() {}
		if v.cfg != nil {
			g, err := power4.NewShardGroup([]*power4.Core{c}, h, *v.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			sink = g.Sink(0)
			drain = g.Drain
		}
		mux, err := NewMultiplexer(coreSource{c}, StandardGroups(), 100)
		if err != nil {
			t.Fatal(err)
		}
		sm, err := NewStreamMux(mux, window)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(trace); off += window {
			end := off + window
			if end > len(trace) {
				end = len(trace)
			}
			sink.ConsumeBatch(trace[off:end])
			drain()
			sm.ConsumeBatch(trace[off:end])
		}
		if sm.Err() != nil {
			t.Fatal(sm.Err())
		}
		results[vi] = result{windows: mux.Windows(), samples: make(map[string][]Sample)}
		for _, g := range StandardGroups() {
			results[vi].samples[g.Name] = mux.Samples(g.Name)
		}
	}
	want := results[0]
	if want.windows == 0 {
		t.Fatal("no rotations fired; the parity check is hollow")
	}
	for vi := 1; vi < len(results); vi++ {
		if results[vi].windows != want.windows {
			t.Errorf("%s: %d windows, fused %d", variants[vi].name, results[vi].windows, want.windows)
		}
		if !reflect.DeepEqual(results[vi].samples, want.samples) {
			t.Errorf("%s: samples diverged from fused", variants[vi].name)
		}
	}
}

// TestStreamMuxSamplesDeltas: rotations snapshot the counter source, so
// each window's sample carries only that window's deltas.
func TestStreamMuxSamplesDeltas(t *testing.T) {
	sm, src := newStreamRig(t, 100)
	batch := make(isa.Batch, 100)

	src.bump(power4.EvCycles, 300)
	src.bump(power4.EvInstCompleted, 100)
	sm.ConsumeBatch(batch) // closes window 0 under group "cpi"

	samples := sm.Mux().Samples("cpi")
	if len(samples) != 1 {
		t.Fatalf("%d cpi samples, want 1", len(samples))
	}
	if got := samples[0].Values[power4.EvCycles]; got != 300 {
		t.Fatalf("window 0 cycles delta = %d, want 300", got)
	}

	// A batch larger than several windows fires every rotation due.
	src.bump(power4.EvCycles, 900)
	src.bump(power4.EvInstCompleted, 300)
	sm.ConsumeBatch(make(isa.Batch, 300))
	if got := sm.Mux().Windows(); got != 4 {
		t.Fatalf("%d windows, want 4", got)
	}
}
