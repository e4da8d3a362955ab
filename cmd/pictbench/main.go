// Command pictbench is the repository's benchmark: one harness that
// times PSQL statements and durable writes against on-file databases
// built through the public pictdb API (the end-to-end metrics) and, in
// a separate traced run, the layers beneath them (the per-layer
// metrics). BENCHMARK.json at the repository root records its command,
// workloads, metrics and regression bounds; README.md explains them.
//
//	go run ./cmd/pictbench                      # every workload, untraced then traced
//	go run ./cmd/pictbench -workload window_read -trace 0 -seed 7
//	go run ./cmd/pictbench -repeat 5 -trace 0 -out a.json
//	go run ./cmd/pictbench -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// config selects one run.
type config struct {
	workload string
	seed     int64
	seconds  float64 // length of the timed region
	trace    bool
	quick    bool   // 1/100 scale
	dir      string // where databases and trace files go
	tamper   bool   // self-test: corrupt one expected row
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result of one run.
type report struct {
	Workload     string            `json:"workload"`
	Trace        bool              `json:"trace"`
	Seed         int64             `json:"seed"`
	Seconds      float64           `json:"seconds"`
	Quick        bool              `json:"quick,omitempty"`
	Correct      bool              `json:"correct"`
	Attempted    int               `json:"attempted"`
	Failed       int               `json:"failed"`
	Samples      int               `json:"op_samples,omitempty"` // latencies behind op_p50_us and op_p95_us
	RowsChecksum string            `json:"rows_checksum"`
	TraceFile    string            `json:"trace_file,omitempty"`
	Notes        []string          `json:"notes,omitempty"`
	Metrics      map[string]metric `json:"metrics"`
}

func newReport(cfg config) *report {
	return &report{
		Workload: cfg.workload, Trace: cfg.trace, Seed: cfg.seed, Seconds: cfg.seconds, Quick: cfg.quick,
		Metrics: map[string]metric{},
	}
}

func (r *report) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// environment records the machine a result was taken on.
type environment struct {
	CPU        string `json:"cpu"`
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func readEnvironment() environment {
	env := environment{CPU: "unknown", Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// results is the file -out writes and -compare reads.
type results struct {
	Env   environment `json:"env"`
	Claim *string     `json:"claim"` // this harness claims no gain: always null
	Runs  []*report   `json:"runs"`
}

const caveats = `load: one generator process, closed loop, at most 2 client goroutines, GOMAXPROCS at its default
flush policy: WAL on, one fsync per commit batch, 4 MiB WAL checkpoint threshold, delta threshold 4096
caveat: in this sandbox fsyncs are cheap and reads come from the OS cache; latencies are the sandbox's, not a device's`

func (r *report) print(w io.Writer) {
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "\n== %s (%s, seed %d, %gs) ==\n", r.Workload, mode, r.Seed, r.Seconds)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", name, m.Value, m.Unit)
	}
	if r.Samples > 0 {
		fmt.Fprintf(w, "  op samples %d in %d segments (%d beyond each segment's p95)\n", r.Samples, segments, r.Samples/segments/20)
	}
	if r.TraceFile != "" {
		fmt.Fprintf(w, "  spans written to %s\n", r.TraceFile)
	}
	fmt.Fprintf(w, "  rows_checksum %s; attempted %d, failed %d, failed_frac %.6f\n",
		r.RowsChecksum, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  FAILED: %s\n", n)
	}
	// The last line of a run is the driver's contract.
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	fmt.Fprintf(w, "%s\n", line)
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout))
}

func realMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("pictbench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run: window_read, join_nested, durable_ingest, mixed_sharded or all")
	seed := fs.Int64("seed", 1985, "input seed; run i of -repeat uses seed+i")
	seconds := fs.Float64("seconds", 0, "length of the timed region (default 20, as in BENCHMARK.json, or 0.2 with -quick)")
	trace := fs.Int("trace", -1, "0: untraced run (end-to-end metrics), 1: traced run (per-layer metrics), -1: one of each")
	quick := fs.Bool("quick", false, "1/100 scale smoke run")
	repeat := fs.Int("repeat", 1, "how many times to run")
	out := fs.String("out", "", "write every run's result to this JSON file")
	dir := fs.String("dir", ".bench_build/pictbench-data", "directory for databases and trace files")
	tamper := fs.Bool("tamper", false, "self-test: corrupt one expected row, so the run must fail")
	compare := fs.Bool("compare", false, "compare two -out files given as arguments, against the bounds in -benchmark")
	benchmark := fs.String("benchmark", "BENCHMARK.json", "the benchmark's definition, for -compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "pictbench: -compare takes two result files")
			return 2
		}
		bf, err := readBenchmarkFile(*benchmark)
		if err == nil {
			err = compareFiles(w, bf, fs.Arg(0), fs.Arg(1))
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "pictbench: %v\n", err)
			return 1
		}
		return 0
	}
	if *seconds <= 0 {
		*seconds = 20
		if *quick {
			*seconds = 0.2
		}
	}
	var names []string
	for _, d := range workloads {
		if *workload == "all" || *workload == d.name {
			names = append(names, d.name)
		}
	}
	if len(names) == 0 || *trace < -1 || *trace > 1 || *repeat < 1 {
		fmt.Fprintln(os.Stderr, "pictbench: bad -workload, -trace or -repeat")
		return 2
	}
	modes := []bool{false, true}
	if *trace >= 0 {
		modes = []bool{*trace == 1}
	}

	res := results{Env: readEnvironment()}
	fmt.Fprintf(w, "env: cpu %q, cores %d, gomaxprocs %d, %s, commit %s\n%s\n",
		res.Env.CPU, res.Env.Cores, res.Env.GOMAXPROCS, res.Env.Go, res.Env.Commit, caveats)
	status := 0
	for i := 0; i < *repeat; i++ {
		for _, traced := range modes {
			for _, name := range names {
				rep, err := run(config{workload: name, seed: *seed + int64(i), seconds: *seconds, trace: traced, quick: *quick, dir: *dir, tamper: *tamper})
				if err != nil {
					fmt.Fprintf(os.Stderr, "pictbench: %s: %v\n", name, err)
					return 1
				}
				rep.print(w)
				if !rep.Correct {
					status = 1
				}
				res.Runs = append(res.Runs, rep)
			}
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "pictbench: writing %s: %v\n", *out, err)
			return 1
		}
	}
	return status
}
