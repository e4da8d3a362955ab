package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func benchmarkJSON(t *testing.T) *benchmarkFile {
	t.Helper()
	bf, err := readBenchmarkFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

// The inputs generated for seed 1985 are frozen: a change to the
// generators (or to anything they might one day depend on) that moves
// the load fails here.
func TestInputsGolden(t *testing.T) {
	golden := map[string][2]string{ // workload -> {full scale, -quick}
		"window_read":    {"75a8c1a7d33bdf59bf7b3552aca7faf31a64a75630f71302bc22a6368d446dc4", "d87acba7cb3692347ddf4739f6d131dbe07a1218e4bf53e7c2c841a45291ce53"},
		"join_nested":    {"309e9dde109d92fbb488479ab2609e2588e65cdbdbeb2d67963d0d2357ed0334", "ea954904beb73cdbc4669adb69dde5255360da3a287259594491f3034834fd82"},
		"durable_ingest": {"c5fe8565b392eb6cb768f679c003f22e70c6b9af38480e29da0ebdfbe536434a", "6bcc80e8f27954fcc09a98b9a9c66f40fa5bd9c6519ace12f2f0f76067af054d"},
		"mixed_sharded":  {"c349bb811cb68c58efbbfc49cee1d0d722cffba9d826cfe482961e30f61fc190", "5bef7144efed701dceaa88f3679198af9f6f467241b7f6a76ff8e2c008e6e548"},
	}
	for _, d := range workloads {
		full := generate(d.name, 1985, false).hash()
		quick := generate(d.name, 1985, true).hash()
		if want := golden[d.name]; full != want[0] || quick != want[1] {
			t.Errorf("%s: inputs for seed 1985 hash to\n\t{%q, %q}, want\n\t{%q, %q}", d.name, full, quick, want[0], want[1])
		}
		if again := generate(d.name, 1985, true).hash(); again != quick {
			t.Errorf("%s: the same seed generated different inputs", d.name)
		}
		if other := generate(d.name, 1986, true).hash(); other == quick {
			t.Errorf("%s: seeds 1985 and 1986 generated the same inputs", d.name)
		}
	}
}

func TestBenchmarkFileNamesKnownWorkloads(t *testing.T) {
	for _, w := range benchmarkJSON(t).Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the harness does not have", w.Name)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// Every workload, untraced and traced, at 1/100 scale: each must emit
// exactly the metrics BENCHMARK.json names for that mode, with their
// units, pass its output checks, and (traced) write well-nested spans.
func TestQuickRunsEmitEveryMetric(t *testing.T) {
	bf := benchmarkJSON(t)
	dir := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rep, err := run(config{workload: w.name, seed: 1985, seconds: 0.2, trace: traced, quick: true, dir: dir})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d notes=%q", w.name, traced, rep.Correct, rep.Attempted, rep.Failed, rep.Notes)
			}
			want := map[string]string{}
			if traced {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			for name, unit := range want {
				m, ok := rep.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s is not emitted", w.name, traced, name)
				case m.Unit != unit:
					t.Errorf("%s traced=%v: metric %s has unit %q, BENCHMARK.json says %q", w.name, traced, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0:
					t.Errorf("%s traced=%v: metric %s = %v", w.name, traced, name, m.Value)
				case !traced && m.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w.name, name)
				}
			}
			for name := range rep.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s traced=%v: metric %s is emitted but not in BENCHMARK.json", w.name, traced, name)
				}
				if !nameRE.MatchString(name) {
					t.Errorf("metric name %q", name)
				}
			}
			if traced {
				checkSpans(t, rep.TraceFile)
			}
		}
	}
}

// checkSpans reads a trace file: a child lies inside its parent and
// shares its operation, and no span's self time is negative.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byClient := map[int][]span{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if !nameRE.MatchString(s.Name) {
			t.Errorf("span name %q", s.Name)
		}
		byClient[s.Client] = append(byClient[s.Client], s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(byClient) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	for client, spans := range byClient {
		children := make([]int64, len(spans))
		for i, s := range spans {
			if s.ID != i+1 || s.EndNS < s.StartNS {
				t.Fatalf("client %d span %d: id %d, [%d, %d]", client, i, s.ID, s.StartNS, s.EndNS)
			}
			if s.Parent == 0 {
				continue
			}
			p := spans[s.Parent-1]
			if p.Op != s.Op || s.StartNS < p.StartNS || s.EndNS > p.EndNS {
				t.Fatalf("client %d: span %+v is not inside its parent %+v", client, s, p)
			}
			children[s.Parent-1] += s.EndNS - s.StartNS
		}
		for i, s := range spans {
			if self := s.EndNS - s.StartNS - children[i]; self < 0 {
				t.Fatalf("client %d: span %+v has self time %d", client, s, self)
			}
		}
	}
}

// A wrong expected row must fail the run and the command.
func TestWrongExpectedRowFailsTheCommand(t *testing.T) {
	args := []string{"-quick", "-workload", "window_read", "-trace", "0", "-dir", t.TempDir()}
	if status := realMain(args, io.Discard); status != 0 {
		t.Fatalf("clean run exited %d", status)
	}
	if status := realMain(append(args, "-tamper"), io.Discard); status == 0 {
		t.Fatal("a run whose expected rows were corrupted exited 0")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([...], n=4) of these ten values.
	q1, q2, q3 := quartiles([]float64{10, 2, 38, 23, 38, 23, 21, 40, 5, 17})
	if q1 != 8.75 || q2 != 22 || q3 != 38 {
		t.Errorf("quartiles = %v %v %v, want 8.75 22 38", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50, p99 []float64) string {
		var r results
		for i := range p50 {
			rep := newReport(config{workload: "window_read", seed: int64(i)})
			rep.set("op_p50_us", p50[i], "us")
			rep.set("op_p95_us", p99[i], "us")
			rep.set("ops_per_s", 1000, "1/s")
			r.Runs = append(r.Runs, rep)
		}
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", []float64{100, 101, 99, 100, 100}, []float64{500, 510, 490, 505, 495})
	b := write("b.json", []float64{130, 131, 129, 130, 130}, []float64{300, 900, 500, 100, 700})
	var out bytes.Buffer
	if err := compareFiles(&out, benchmarkJSON(t), a, b); err != nil {
		t.Fatal(err)
	}
	for metric, verdict := range map[string]string{"op_p50_us": "worse", "op_p95_us": "unresolved", "ops_per_s": "ok"} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, metric) {
				found = strings.HasSuffix(line, verdict)
			}
		}
		if !found {
			t.Errorf("%s: want verdict %q in\n%s", metric, verdict, out.String())
		}
	}
}
