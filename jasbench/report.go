package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"jasworkload/internal/core"
)

// runReport measures the headline user path: one op is a cold FlushRuns
// plus Characterize of the quick-scale jas2004 config, rendered as
// Markdown, at parallelism = nproc. It is the only workload that runs the
// instruction-detail model. Ops cycle through the run's config seeds.
func runReport(b *bench) (*outcome, error) {
	core.SetParallelism(runtime.NumCPU())
	seeds := configSeeds(b.seed)
	cfgs := make([]core.RunConfig, len(seeds))
	for i, s := range seeds {
		cfgs[i] = core.DefaultRunConfig(core.ScaleQuick)
		cfgs[i].Seed = s
	}
	o := &outcome{layer: map[string]float64{}, meta: map[string]any{"parallelism": core.Parallelism(), "config_seeds": seeds}}

	// The golden file pins the config-seed-1 report; at other seeds the
	// run's first report at that seed is the reference for later ones.
	g, err := os.ReadFile(filepath.Join(b.root, "testdata", "golden_report_quick.md"))
	if err != nil {
		return nil, err
	}
	refs := map[int64]string{1: string(g)}
	check := func(cfg core.RunConfig, md string) error {
		want, ok := refs[cfg.Seed]
		if !ok {
			refs[cfg.Seed] = md
			return nil
		}
		return checkReport(md, want)
	}

	// Set-up: build the first reports untimed, one config seed per
	// repetition. They fill the process heap and code paths before any op
	// is timed, and give the references.
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		md, err := reportOp(cfgs[rep%len(cfgs)], nil, 0)
		o.setups = append(o.setups, time.Since(t0))
		if err == nil {
			err = check(cfgs[rep%len(cfgs)], md)
		}
		if err != nil {
			return nil, fmt.Errorf("set-up report at seed %d: %w", cfgs[rep%len(cfgs)].Seed, err)
		}
	}

	sims0 := core.SimCounts()
	art0, rl0 := core.SplitCacheStats()
	cpu0, alloc0 := selfCPU(), totalAlloc()
	i := 0
	o.elapsed = b.runCycles(func(n int) {
		for pos, cfg := range cfgs {
			t0 := time.Now()
			md, err := reportOp(cfg, b.opTracer(pos, n), i+1)
			o.record(time.Since(t0), b.untracedOp(pos, n))
			if err == nil {
				err = check(cfg, md)
			}
			if err != nil {
				o.fail(fmt.Errorf("seed %d: %w", cfg.Seed, err))
			}
			i++
		}
	})
	o.cpu, o.alloc = selfCPU()-cpu0, totalAlloc()-alloc0
	if o.peakRSSMB, err = peakRSSMB("self"); err != nil {
		return nil, err
	}
	if b.tr == nil {
		return o, nil
	}

	o.simsPerOp(sims0)
	art1, rl1 := core.SplitCacheStats()
	o.layer["core.cache_hit_ratio"] = hitRatio(art0, art1, rl0, rl1)
	spans := b.tr.snapshot()
	for _, leg := range []string{"request_level", "detail", "crosschecks", "render"} {
		o.layer["core."+leg+"_ms"] = mean(spanDurations(spans, "core."+leg)) / 1e6
	}
	return o, probeReport(b, cfgs[len(cfgs)-1], o)
}

// reportOp builds one cold report. Untraced, it is exactly the user's
// call; traced, it runs BuildReport's three concurrent legs as separate
// timed calls into core and then renders from the warm artifact, so each
// leg's time is visible.
func reportOp(cfg core.RunConfig, tr *tracer, op int) (string, error) {
	if tr == nil {
		core.Flush()
		r, err := core.BuildReport(cfg)
		if err != nil {
			return "", err
		}
		return r.Markdown(), nil
	}
	root := tr.begin("op.report", 0, op)
	defer tr.end(root)
	core.Flush()
	legs := []struct {
		name string
		run  func() error
	}{
		{"core.request_level", func() error { _, err := core.RunRequestLevel(cfg); return err }},
		{"core.detail", func() error { _, err := core.RunDetail(cfg); return err }},
		{"core.crosschecks", func() error { _, err := core.RunCrossChecks(cfg); return err }},
	}
	errs := make([]error, len(legs))
	var wg sync.WaitGroup
	for i, leg := range legs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := tr.begin(leg.name, root, op)
			errs[i] = leg.run()
			tr.end(id)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return "", fmt.Errorf("%s: %w", legs[i].name, err)
		}
	}
	id := tr.begin("core.render", root, op)
	defer tr.end(id)
	r, err := core.BuildReport(cfg)
	if err != nil {
		return "", err
	}
	return r.Markdown(), nil
}

// checkReport requires the rendered report to equal the reference byte
// for byte, naming the first differing line otherwise.
func checkReport(got, want string) error {
	if got == want {
		return nil
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Errorf("report line %d differs: got %q, want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Errorf("report has %d lines, want %d", len(g), len(w))
}

// simsPerOp records the simulations per op since the sims0 reading.
func (o *outcome) simsPerOp(sims0 map[string]int) {
	sims := core.SimCounts()
	for _, kind := range []string{"request-level", "detail", "variant"} {
		o.layer["core.sims."+strings.ReplaceAll(kind, "-", "_")] = float64(sims[kind]-sims0[kind]) / float64(o.attempted)
	}
}

// hitRatio is the share of run-store lookups, both fidelities, that hit
// between two SplitCacheStats readings.
func hitRatio(art0, art1, rl0, rl1 core.FidelityCacheStats) float64 {
	hits := float64(art1.Hits - art0.Hits + rl1.Hits - rl0.Hits)
	total := hits + float64(art1.Misses-art0.Misses+rl1.Misses-rl0.Misses)
	if total == 0 {
		return 0
	}
	return hits / total
}
