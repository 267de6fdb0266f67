// Command jasrun runs the full characterization — the simulated
// SPECjAppServer2004 SUT under HPM sampling — and prints every figure and
// table of the paper plus the paper-vs-measured report.
//
// The report and the figures share one run artifact: each fidelity
// (request-level, instruction-detail) simulates exactly once, the
// independent runs (cross-check variants, the disk-starved comparison, the
// 4 KB-page ablation leg) execute concurrently on the experiment
// scheduler, and every figure is a pure view over the cached runs.
// Per-phase wall-clock timings go to stderr so perf changes have a
// baseline to cite.
//
// Usage:
//
//	jasrun [-scale quick|standard|full] [-ir N] [-seed N] [-parallel N]
//	       [-workload NAME] [-list-workloads]
//	       [-arrival SPEC.json] [-replay-trace TRACE.ndjson]
//	       [-record-trace TRACE.ndjson] [-trace-only]
//	       [-duration-ms N] [-ramp-ms N]
//	       [-figures] [-markdown] [-cpuprofile FILE] [-memprofile FILE]
//
// Load generation: -arrival drives the run from a loadgen spec (cohorts
// with steady/burst/ramp/sweep processes); -replay-trace drives it from a
// recorded v1 NDJSON trace. -record-trace captures the run's arrival
// stream to a trace file — generation is standalone (sources never
// observe SUT state), so the recorded trace is exactly what the run
// injects; with -trace-only the trace is written without simulating
// anything.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"jasworkload/internal/core"
	"jasworkload/internal/loadgen"
	"jasworkload/internal/service"
)

func main() {
	scale := flag.String("scale", "quick", "run scale: quick, standard, or full")
	ir := flag.Int("ir", 0, "override the injection rate (0 = scale default)")
	seed := flag.Int64("seed", 1, "deterministic run seed")
	workloadName := flag.String("workload", "", "workload pack to run (default jas2004; see -list-workloads)")
	listWorkloads := flag.Bool("list-workloads", false, "list the registered workload packs and exit")
	arrivalFile := flag.String("arrival", "", "drive the run from this loadgen spec (JSON)")
	replayTrace := flag.String("replay-trace", "", "drive the run from this recorded v1 NDJSON trace")
	recordTrace := flag.String("record-trace", "", "record the run's arrival stream to this trace file (requires -arrival or -replay-trace)")
	traceOnly := flag.Bool("trace-only", false, "with -record-trace: write the trace and exit without simulating")
	durationMS := flag.Float64("duration-ms", 0, "override the run duration in milliseconds (0 = scale default)")
	rampMS := flag.Float64("ramp-ms", 0, "override the ramp-up in milliseconds (0 = scale default)")
	parallel := flag.Int("parallel", 0, "max concurrent simulations (0 = one per CPU)")
	figures := flag.Bool("figures", false, "print every figure's full rendering, not just the report")
	markdown := flag.Bool("markdown", false, "emit the report as a markdown table (EXPERIMENTS.md format)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *listWorkloads {
		// The same registry jasd serves on GET /v1/workloads.
		for _, wi := range service.ListWorkloads() {
			def := ""
			if wi.Default {
				def = " (default)"
			}
			fmt.Printf("%-16s %d classes%s  %s\n", wi.Name, wi.Classes, def, wi.Description)
		}
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jasrun:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "jasrun:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "jasrun:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "jasrun:", err)
			}
		}()
	}

	var sc core.Scale
	switch *scale {
	case "quick":
		sc = core.ScaleQuick
	case "standard":
		sc = core.ScaleStandard
	case "full":
		sc = core.ScaleFull
	default:
		fmt.Fprintf(os.Stderr, "jasrun: unknown scale %q\n", *scale)
		os.Exit(2)
	}
	cfg := core.DefaultRunConfig(sc)
	cfg.Seed = *seed
	cfg.Workload = *workloadName
	if *ir > 0 {
		cfg.IR = *ir
	}
	cfg.DurationMS = *durationMS
	cfg.RampMS = *rampMS
	if *parallel > 0 {
		core.SetParallelism(*parallel)
	}

	if *arrivalFile != "" && *replayTrace != "" {
		fmt.Fprintln(os.Stderr, "jasrun: -arrival and -replay-trace are mutually exclusive")
		os.Exit(2)
	}
	switch {
	case *arrivalFile != "":
		raw, err := os.ReadFile(*arrivalFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jasrun:", err)
			os.Exit(1)
		}
		spec, err := loadgen.Parse(raw)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jasrun:", err)
			os.Exit(1)
		}
		cfg.Arrival = spec.Canonical()
	case *replayTrace != "":
		f, err := os.Open(*replayTrace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jasrun:", err)
			os.Exit(1)
		}
		tr, err := loadgen.ReadTrace(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "jasrun:", err)
			os.Exit(1)
		}
		cfg.Arrival = tr.Spec().Canonical()
	}
	if cfg.Arrival != "" {
		if err := core.CheckArrivalClasses(cfg.Arrival, cfg.Workload); err != nil {
			fmt.Fprintln(os.Stderr, "jasrun:", err)
			os.Exit(1)
		}
	}
	if *recordTrace != "" {
		// Recording is standalone generation: loadgen sources are pure
		// functions of (spec, config), so the trace written here is
		// byte-for-byte what a run under this config injects. The legacy
		// steady loop is not spec-driven, hence the -arrival requirement.
		if cfg.Arrival == "" {
			fmt.Fprintln(os.Stderr, "jasrun: -record-trace requires -arrival or -replay-trace (the legacy steady loop is not spec-driven; use an explicit steady spec to record it)")
			os.Exit(2)
		}
		if err := writeTrace(*recordTrace, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "jasrun:", err)
			os.Exit(1)
		}
		if *traceOnly {
			return
		}
	} else if *traceOnly {
		fmt.Fprintln(os.Stderr, "jasrun: -trace-only requires -record-trace")
		os.Exit(2)
	}

	timing := log.New(os.Stderr, "jasrun: ", 0)
	start := time.Now()

	// Warm the shared artifact: the three simulation phases are
	// independent, so they run concurrently on the scheduler. Phase times
	// overlap; the wall clock is the longest phase, not their sum.
	art := core.ForConfig(cfg)
	g := core.NewGroup(core.Parallelism())
	phase := func(name string, fn func() error) {
		g.Go(func() error {
			t := time.Now()
			if err := fn(); err != nil {
				return err
			}
			timing.Printf("phase %-22s %8.2fs", name, time.Since(t).Seconds())
			return nil
		})
	}
	phase("request-level run", func() error {
		_, err := art.RequestLevel()
		return err
	})
	phase("detail run", func() error {
		_, err := art.Detail()
		return err
	})
	phase("cross-check variants", func() error {
		_, err := art.CrossChecks()
		return err
	})
	if err := g.Wait(); err != nil {
		fmt.Fprintln(os.Stderr, "jasrun:", err)
		os.Exit(1)
	}

	if *figures {
		t := time.Now()
		if err := printFigures(art); err != nil {
			fmt.Fprintln(os.Stderr, "jasrun:", err)
			os.Exit(1)
		}
		timing.Printf("phase %-22s %8.2fs", "figure rendering", time.Since(t).Seconds())
	}

	t := time.Now()
	rep, err := core.BuildReport(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jasrun:", err)
		os.Exit(1)
	}
	timing.Printf("phase %-22s %8.2fs", "report assembly", time.Since(t).Seconds())
	timing.Printf("total %31.2fs (parallelism %d)", time.Since(start).Seconds(), core.Parallelism())

	if *markdown {
		fmt.Print(rep.Markdown())
		return
	}
	fmt.Print(rep.String())
}

// writeTrace records cfg's arrival stream to path as a v1 NDJSON trace.
// Generation is standalone — no simulation runs.
func writeTrace(path string, cfg core.RunConfig) error {
	tr, err := core.RecordArrivalTrace(cfg)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := loadgen.WriteTrace(f, tr); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printFigures renders every figure from the shared artifact. Only the
// studies that need differently-configured systems (large-page 4 KB leg,
// disk-starved run) simulate anything here; everything else is a view.
func printFigures(art *core.Artifact) error {
	rl, err := art.RequestLevel()
	if err != nil {
		return err
	}
	fmt.Println(rl.Fig2())
	fmt.Println(rl.Fig3())
	fmt.Println(rl.Fig4())

	d, err := art.Detail()
	if err != nil {
		return err
	}
	f5, err := d.Fig5()
	if err != nil {
		return err
	}
	fmt.Println(f5)
	f6, err := d.Fig6()
	if err != nil {
		return err
	}
	fmt.Println(f6)
	f7, err := d.Fig7()
	if err != nil {
		return err
	}
	fmt.Println(f7)
	abl, err := art.LargePages()
	if err != nil {
		return err
	}
	fmt.Println(abl)
	f8, err := d.Fig8()
	if err != nil {
		return err
	}
	fmt.Println(f8)
	f9, err := d.Fig9()
	if err != nil {
		return err
	}
	fmt.Println(f9)
	lk, err := d.Locking()
	if err != nil {
		return err
	}
	fmt.Println(lk)
	f10, err := d.Fig10()
	if err != nil {
		return err
	}
	fmt.Println(f10)
	sc, err := art.Scalars()
	if err != nil {
		return err
	}
	fmt.Println(sc)
	cc, err := art.CrossChecks()
	if err != nil {
		return err
	}
	fmt.Println(cc)
	return nil
}
