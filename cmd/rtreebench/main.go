// Command rtreebench regenerates the paper's Table 1: Guttman's
// dynamic INSERT versus the PACK algorithm over uniform random points,
// reporting coverage (C), overlap (O), depth (D), node count (N) and
// average nodes visited per random point query (A) for each J.
//
// Usage:
//
//	rtreebench [-queries n] [-seed s] [-split linear|quadratic|exhaustive]
//	           [-method nn|lowx|str|hilbert|rotate] [-trim] [-js 10,25,...]
//	           [-json] [-cpuprofile f] [-memprofile f]
//
// With -trim (the paper's "multiple of four" assumption) the PACK N
// and D columns reproduce Table 1 exactly. -json switches to
// machine-readable output. Timings of the served path are
// cmd/pictbench's job, not this command's.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/pack"
	"repro/internal/rtree"
)

func main() {
	queries := flag.Int("queries", 1000, "random point queries per row")
	seed := flag.Int64("seed", 1985, "random seed")
	split := flag.String("split", "linear", "INSERT split algorithm: linear, quadratic, exhaustive")
	method := flag.String("method", "nn", "packing method: nn, lowx, str, hilbert, rotate, nn-area")
	trim := flag.Bool("trim", true, "trim J to a multiple of the branching factor (paper's assumption)")
	js := flag.String("js", "", "comma-separated J values (default: the paper's row set)")
	wl := flag.String("workload", "uniform", "point distribution: uniform, clustered, skewed")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of the formatted table")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	flag.Parse()

	cfg := experiments.Table1Config{
		Queries:        *queries,
		Seed:           *seed,
		TrimToMultiple: *trim,
	}
	switch *wl {
	case "uniform":
		cfg.Workload = experiments.WorkloadUniform
	case "clustered":
		cfg.Workload = experiments.WorkloadClustered
	case "skewed":
		cfg.Workload = experiments.WorkloadSkewed
	default:
		fmt.Fprintf(os.Stderr, "rtreebench: unknown workload %q\n", *wl)
		os.Exit(2)
	}
	switch *split {
	case "linear":
		cfg.Split = rtree.SplitLinear
	case "quadratic":
		cfg.Split = rtree.SplitQuadratic
	case "exhaustive":
		cfg.Split = rtree.SplitExhaustive
	default:
		fmt.Fprintf(os.Stderr, "rtreebench: unknown split %q\n", *split)
		os.Exit(2)
	}
	switch *method {
	case "nn":
		cfg.PackMethod = pack.MethodNN
	case "lowx":
		cfg.PackMethod = pack.MethodLowX
	case "str":
		cfg.PackMethod = pack.MethodSTR
	case "hilbert":
		cfg.PackMethod = pack.MethodHilbert
	case "rotate":
		cfg.PackMethod = pack.MethodRotate
	case "nn-area":
		cfg.PackMethod = pack.MethodNNArea
	default:
		fmt.Fprintf(os.Stderr, "rtreebench: unknown method %q\n", *method)
		os.Exit(2)
	}
	if *js != "" {
		for _, part := range strings.Split(*js, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || v <= 0 {
				fmt.Fprintf(os.Stderr, "rtreebench: bad J value %q\n", part)
				os.Exit(2)
			}
			cfg.Js = append(cfg.Js, v)
		}
	}

	stopCPU := startCPUProfile(*cpuprofile)
	defer stopCPU()
	defer writeHeapProfile(*memprofile)

	rows := experiments.RunTable1(cfg)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rows); err != nil {
			fmt.Fprintf(os.Stderr, "rtreebench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("Table 1 reproduction: INSERT(%s) vs PACK(%s), %s points, %d queries/row, seed %d, trim=%v\n\n",
		*split, *method, cfg.Workload, *queries, *seed, *trim)
	fmt.Print(experiments.FormatTable1(rows))

	if *trim && cfg.Js == nil && cfg.Workload == experiments.WorkloadUniform {
		// Verify the structurally determined columns against the
		// paper's published values.
		paper := experiments.PaperTable1Pack()
		mismatches := 0
		for _, r := range rows {
			want := paper[r.J]
			if r.Pack.Nodes != want.N || r.Pack.Depth != want.D {
				mismatches++
				fmt.Printf("  !! J=%d: PACK N=%d D=%d, paper N=%d D=%d\n",
					r.J, r.Pack.Nodes, r.Pack.Depth, want.N, want.D)
			}
		}
		if mismatches == 0 {
			fmt.Println("\nPACK N and D columns match the paper's Table 1 exactly for all 17 rows.")
		}
	}
}

// startCPUProfile begins CPU profiling to path (no-op when empty) and
// returns the stop function.
func startCPUProfile(path string) func() {
	if path == "" {
		return func() {}
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rtreebench: -cpuprofile: %v\n", err)
		os.Exit(1)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		fmt.Fprintf(os.Stderr, "rtreebench: -cpuprofile: %v\n", err)
		os.Exit(1)
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "rtreebench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
	}
}

// writeHeapProfile dumps a heap profile to path (no-op when empty).
func writeHeapProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rtreebench: -memprofile: %v\n", err)
		os.Exit(1)
	}
	runtime.GC() // materialize the final live set
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintf(os.Stderr, "rtreebench: -memprofile: %v\n", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "rtreebench: -memprofile: %v\n", err)
		os.Exit(1)
	}
}
