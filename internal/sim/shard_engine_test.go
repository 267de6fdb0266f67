package sim

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"jasworkload/internal/power4"
)

// TestEngineShardedEquivalence: a full detail-mode engine run must
// produce byte-identical windows and counters whether the stream runs
// through the core-sharded group or the fused loop. Forcing GOMAXPROCS=2
// for the sharded leg keeps the auto mode from collapsing to the fused
// loop on 1-CPU CI hosts — the comparison must exercise the concurrent
// merge everywhere.
func TestEngineShardedEquivalence(t *testing.T) {
	run := func(sharded bool) ([]WindowStats, []power4.Counters) {
		if sharded {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
		}
		sut := smallSUT(t, 8)
		ecfg := DefaultEngineConfig()
		ecfg.DurationMS = 12_000
		ecfg.RampMS = 2_000
		ecfg.DetailFrac = 0.02
		ecfg.Sharded = sharded
		e, err := NewEngine(ecfg, sut)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		perCore := make([]power4.Counters, len(sut.Cores))
		for i, c := range sut.Cores {
			perCore[i] = c.Counters()
		}
		return e.Windows(), perCore
	}

	fusedWin, fusedCtr := run(false)
	shardWin, shardCtr := run(true)

	if !reflect.DeepEqual(fusedWin, shardWin) {
		for i := range fusedWin {
			if i < len(shardWin) && !reflect.DeepEqual(fusedWin[i], shardWin[i]) {
				t.Fatalf("window %d diverged:\nfused   %+v\nsharded %+v", i, fusedWin[i], shardWin[i])
			}
		}
		t.Fatalf("window counts diverged: fused %d, sharded %d", len(fusedWin), len(shardWin))
	}
	for i := range fusedCtr {
		if fusedCtr[i] != shardCtr[i] {
			for _, ev := range power4.AllEvents() {
				if fusedCtr[i].Get(ev) != shardCtr[i].Get(ev) {
					t.Errorf("core %d %v: fused %d, sharded %d",
						i, ev, fusedCtr[i].Get(ev), shardCtr[i].Get(ev))
				}
			}
		}
	}
	var total power4.Counters
	for i := range fusedCtr {
		total.AddAll(&fusedCtr[i])
	}
	if total.Get(power4.EvInstCompleted) == 0 {
		t.Fatal("detail run completed no instructions; the equivalence is hollow")
	}
}

// TestEngineShardedDeterminism: the sharded engine's windows and HPM
// counters must be byte-identical at every GOMAXPROCS — the host's
// parallelism may change the shard count and every queue-timing
// interleaving, but never a result.
func TestEngineShardedDeterminism(t *testing.T) {
	run := func(procs int) ([]WindowStats, []power4.Counters) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		sut := smallSUT(t, 8)
		ecfg := DefaultEngineConfig()
		ecfg.DurationMS = 10_000
		ecfg.RampMS = 2_000
		ecfg.DetailFrac = 0.02
		ecfg.Sharded = true
		e, err := NewEngine(ecfg, sut)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		perCore := make([]power4.Counters, len(sut.Cores))
		for i, c := range sut.Cores {
			perCore[i] = c.Counters()
		}
		return e.Windows(), perCore
	}

	refWin, refCtr := run(1) // GOMAXPROCS=1: auto mode collapses to fused
	for _, procs := range []int{2, 3, 8} {
		win, ctr := run(procs)
		if !reflect.DeepEqual(refWin, win) {
			t.Fatalf("GOMAXPROCS=%d: windows diverged from GOMAXPROCS=1", procs)
		}
		if !reflect.DeepEqual(refCtr, ctr) {
			t.Fatalf("GOMAXPROCS=%d: counters diverged from GOMAXPROCS=1", procs)
		}
	}
}

// TestEngineShardTeardown: an engine must leave no shard group attached
// and no goroutines behind after RunContext, for both completed and
// aborted runs. GOMAXPROCS=2 keeps the auto mode from collapsing to the
// fused loop, so the group really starts workers, a merge and accountants
// that the teardown has to stop.
func TestEngineShardTeardown(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	settled := func(before int) bool {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				return false
			}
			time.Sleep(5 * time.Millisecond)
		}
		return true
	}

	t.Run("completed", func(t *testing.T) {
		before := runtime.NumGoroutine()
		sut := smallSUT(t, 8)
		e := shortEngine(t, sut, 3_000, 1_000, 0.02)
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if e.shard != nil {
			t.Fatal("shard group survived RunContext")
		}
		if !settled(before) {
			t.Fatalf("goroutines: %d after run, %d before", runtime.NumGoroutine(), before)
		}
	})

	t.Run("aborted", func(t *testing.T) {
		before := runtime.NumGoroutine()
		sut := smallSUT(t, 8)
		e := shortEngine(t, sut, 10_000, 1_000, 0.02)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		windows := 0
		mode := ""
		e.SetWindowFunc(func(WindowStats) {
			if windows++; windows == 2 {
				mode = e.shard.Mode()
				cancel()
			}
		})
		if _, err := e.RunContext(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("RunContext = %v, want context.Canceled", err)
		}
		if mode != "sharded" {
			t.Fatalf("group mode %q during the run, want sharded", mode)
		}
		if e.shard != nil {
			t.Fatal("shard group survived an aborted RunContext")
		}
		if !settled(before) {
			t.Fatalf("goroutines: %d after abort, %d before", runtime.NumGoroutine(), before)
		}
	})
}
