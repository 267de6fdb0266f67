package main

import (
	"fmt"
	"time"

	"jasworkload/internal/core"
)

// Sweep grid: the run's config seeds, crossed with three packs, crossed
// with heapsweep's heap axis with the baseline cache pinned, so the live
// set stays fixed and GC work grows as the heap shrinks. Every cell is a
// distinct request key, so each op runs exactly one request-level
// simulation and no detail simulation.
var (
	sweepHeapsMB = []any{768, 512, 384, 256, 192, 144, 128}
	sweepPacks   = []any{"jas2004", "dataanalytics", "virtweb"}
)

// sweepCacheBytes pins BaselineCacheBytes, as in examples/heapsweep.
const sweepCacheBytes = 96 << 20

// sweepGrid expands the grid for a benchmark seed.
func sweepGrid(seed int64) ([]core.Cell, error) {
	base := core.DefaultRunConfig(core.ScaleQuick)
	base.BaselineCacheBytes = sweepCacheBytes
	var seeds []any
	for _, s := range configSeeds(seed) {
		seeds = append(seeds, s)
	}
	sw := core.Sweep{Base: base, Axes: []core.Axis{
		{Param: "seed", Values: seeds},
		{Param: "workload", Values: sweepPacks},
		{Param: "heap_mb", Values: sweepHeapsMB},
	}}
	cells, err := sw.Expand(len(seeds) * len(sweepPacks) * len(sweepHeapsMB))
	if err != nil {
		return nil, err
	}
	if n := core.DistinctRequestKeys(cells); n != len(cells) {
		return nil, fmt.Errorf("grid of %d cells has %d distinct request keys, want one each", len(cells), n)
	}
	return cells, nil
}

// runSweep measures one request-level cell of a what-if grid per op.
// Cells run one at a time in a fixed order, each after a flush, in whole
// passes over the grid.
func runSweep(b *bench) (*outcome, error) {
	o := &outcome{layer: map[string]float64{}, meta: map[string]any{}}
	var cells []core.Cell
	refs := map[int]string{}

	// Set-up: expand the grid and run its first cell at every config seed
	// untimed, setupReps times. The first results are those cells'
	// references.
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		var err error
		if cells, err = sweepGrid(b.seed); err != nil {
			return nil, err
		}
		for _, cell := range cells {
			if cell.Cfg.Workload != cells[0].Cfg.Workload || cell.Cfg.HeapBytes != cells[0].Cfg.HeapBytes {
				continue
			}
			core.Flush()
			fp, err := sweepOp(cell, nil, 0)
			if err == nil {
				err = checkCell(refs, cell, fp)
			}
			if err != nil {
				return nil, fmt.Errorf("set-up cell %s: %w", cell.Label, err)
			}
		}
		o.setups = append(o.setups, time.Since(t0))
	}
	o.meta["cells"] = len(cells)

	sims0 := core.SimCounts()
	art0, rl0 := core.SplitCacheStats()
	cpu0, alloc0 := selfCPU(), totalAlloc()
	i, passes := 0, 0
	o.elapsed = b.runCycles(func(n int) {
		passes++
		for pos, cell := range cells {
			// Cells share no runs, so flushing before each one costs nothing
			// and holds the process to one cell's footprint.
			core.Flush()
			before := core.SimCounts()
			t0 := time.Now()
			fp, err := sweepOp(cell, b.opTracer(pos, n), i+1)
			o.record(time.Since(t0), b.untracedOp(pos, n))
			if err == nil {
				err = checkSims(before, core.SimCounts(), map[string]int{"request-level": 1})
			}
			if err == nil {
				err = checkCell(refs, cell, fp)
			}
			if err != nil {
				o.fail(fmt.Errorf("cell %s: %w", cell.Label, err))
			}
			i++
		}
	})
	o.cpu, o.alloc = selfCPU()-cpu0, totalAlloc()-alloc0
	o.meta["passes"] = passes
	var err error
	if o.peakRSSMB, err = peakRSSMB("self"); err != nil {
		return nil, err
	}
	if b.tr == nil {
		return o, nil
	}
	o.simsPerOp(sims0)
	art1, rl1 := core.SplitCacheStats()
	o.layer["core.cache_hit_ratio"] = hitRatio(art0, art1, rl0, rl1)
	o.layer["core.request_level_ms"] = mean(spanDurations(b.tr.snapshot(), "core.request_level")) / 1e6
	return o, probeSweep(b, cells, o)
}

// sweepOp runs one cell and returns its fingerprint: the Fig3 GC summary,
// JOPS and audit, which must not change between passes.
func sweepOp(cell core.Cell, tr *tracer, op int) (string, error) {
	root := tr.begin("op.sweep", 0, op)
	defer tr.end(root)
	id := tr.begin("core.request_level", root, op)
	run, err := core.RunRequestLevel(cell.Cfg)
	tr.end(id)
	if err != nil {
		return "", err
	}
	audit, pass := run.Audit()
	return fmt.Sprintf("fig3=%#v jops=%v audit=%#v pass=%v", run.Fig3().Summary, run.JOPS(), audit, pass), nil
}

// checkCell compares a cell's fingerprint with the first one recorded for
// that cell, recording it if there is none yet.
func checkCell(refs map[int]string, cell core.Cell, fp string) error {
	want, ok := refs[cell.Index]
	if !ok {
		refs[cell.Index] = fp
		return nil
	}
	if fp != want {
		return fmt.Errorf("cell %s result changed between passes:\n got %s\nwant %s", cell.Label, fp, want)
	}
	return nil
}

// checkSims requires the simulations run between two SimCounts readings
// to be exactly want per kind (kinds absent from want must not run).
func checkSims(before, after, want map[string]int) error {
	for _, kind := range []string{"request-level", "detail", "variant"} {
		if d := after[kind] - before[kind]; d != want[kind] {
			return fmt.Errorf("%d %s simulations, want %d", d, kind, want[kind])
		}
	}
	return nil
}
