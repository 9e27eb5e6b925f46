// Command hsdeval runs the survey's detector zoo across a benchmark suite
// and prints the reconstructed evaluation tables (Tables I-IV and the
// figure data; see DESIGN.md §3).
//
// Usage:
//
//	hsdeval -suite suite.gob                  # evaluate a cached suite
//	hsdeval -seed 1 -small                    # generate on the fly
//	hsdeval -suite suite.gob -figures -bench B1
//	hsdeval -small -trace eval.json           # per-stage ODST timeline
//
// -trace records every zoo evaluation as one trace — an "eval" span
// whose "fit", "score", and "verify" children decompose the reported
// ODST terms, with the per-clip raster/features/inference spans nested
// inside — and writes them all as Chrome trace_event JSON for
// about:tracing or https://ui.perfetto.dev.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	hsd "github.com/golitho/hsd"
	"github.com/golitho/hsd/internal/cliflag"
	"github.com/golitho/hsd/internal/experiments"
	"github.com/golitho/hsd/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hsdeval:", err)
		os.Exit(1)
	}
}

func run() error {
	model := cliflag.NewModel(flag.CommandLine, cliflag.ModelHelp{
		Suite: "suite gob file (empty = generate)",
		Bench: "benchmark for figures (default: first)",
		Seed:  "generation seed when -suite is empty",
	})
	small := flag.Bool("small", false, "generate the miniature suite")
	figures := flag.Bool("figures", false, "also regenerate figure data (slower)")
	noODST := flag.Bool("no-odst", false, "skip lithography verification of flagged clips")
	traceOut := flag.String("trace", "", "write per-evaluation Chrome trace_event JSON to this file (about:tracing / ui.perfetto.dev)")
	routerFlags := cliflag.NewRouter(flag.CommandLine, false)
	version := cliflag.NewVersion(flag.CommandLine, "hsdeval", cliflag.VersionHelp)
	flag.Parse()

	if version.Print() {
		return nil
	}
	if err := routerFlags.Validate(); err != nil {
		return err
	}

	suite, err := loadOrGenerate(model, *small)
	if err != nil {
		return err
	}
	fmt.Println(experiments.BenchStats(suite))

	var sim *hsd.Simulator
	if !*noODST {
		sim, err = hsd.NewSimulator(hsd.DefaultSimConfig())
		if err != nil {
			return err
		}
	}

	zoo := hsd.SurveyZoo(model.Seed)
	for i := range zoo {
		// The zoo's Router entry picks up the forced band and error
		// budget at construction; the other entries ignore the flags.
		inner := zoo[i].New
		zoo[i].New = func() hsd.Detector {
			det := inner()
			if _, ok := det.(*hsd.RouterDetector); ok {
				_ = routerFlags.Apply(det) // validated above; a Router takes any band
			}
			return det
		}
	}
	ctx := context.Background()
	var tracer *trace.Tracer
	if *traceOut != "" {
		// One trace per (detector, benchmark) evaluation; a single shard
		// makes the store an exact FIFO ring so none are evicted early by
		// uneven trace-ID hashing (the writer is one goroutine anyway).
		tracer = trace.New(trace.Config{Capacity: len(zoo)*len(suite.Benchmarks) + 1, Shards: 1})
		ctx = trace.WithTracer(ctx, tracer)
	}
	t0 := time.Now()
	results, err := experiments.RunZooCtx(ctx, suite, zoo, sim)
	if err != nil {
		return err
	}
	if tracer != nil {
		traces := tracer.Traces(0)
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		if err := trace.WriteChrome(f, traces); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %d evaluation traces to %s (load in about:tracing or ui.perfetto.dev)\n",
			len(traces), *traceOut)
	}
	shallowSpecs, deepSpecs := experiments.SplitZoo(zoo)
	shallow := results[:len(shallowSpecs)]
	deep := results[len(shallowSpecs) : len(shallowSpecs)+len(deepSpecs)]
	fmt.Println(experiments.DetectorTable("Table II: shallow detectors", suite, shallow))
	fmt.Println(experiments.DetectorTable("Table III: deep detectors", suite, deep))
	fmt.Println(experiments.Summary(results))
	fmt.Printf("zoo evaluation took %v\n\n", time.Since(t0).Round(time.Second))

	if *figures {
		b, err := model.Benchmark(suite)
		if err != nil {
			return err
		}
		bench := b.Name
		roc, err := experiments.ROCFig(suite, bench, results)
		if err != nil {
			return err
		}
		fmt.Println(roc)
		bias, err := experiments.BiasSweep(suite, bench, model.Seed, []float64{0, 0.1, 0.2, 0.3, 0.4})
		if err != nil {
			return err
		}
		fmt.Println(bias)
		imb, err := experiments.ImbalanceSweep(suite, bench, model.Seed, []int{1, 2, 4, 8})
		if err != nil {
			return err
		}
		fmt.Println(imb)
		conv, err := experiments.Convergence(suite, bench, model.Seed)
		if err != nil {
			return err
		}
		fmt.Println(conv)
		odst, err := experiments.ODSTScaling(suite, model.Seed, []int{8192, 16384, 32768})
		if err != nil {
			return err
		}
		fmt.Println(odst)
	}
	return nil
}

func loadOrGenerate(model *cliflag.Model, small bool) (*hsd.Suite, error) {
	if model.SuitePath != "" {
		return model.LoadSuite()
	}
	cfg := hsd.DefaultSuiteConfig(model.Seed)
	if small {
		cfg = hsd.SmallSuiteConfig(model.Seed)
	}
	fmt.Println("generating suite (use benchgen + -suite to cache)...")
	return hsd.GenerateSuite(cfg)
}
