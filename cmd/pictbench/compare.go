package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkFile mirrors BENCHMARK.json, which holds the end-to-end
// metrics' regression bounds: the share of the baseline's median by
// which each may worsen.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// quartiles returns Q1, the median and Q3 as Python's
// statistics.quantiles(values, n=4) computes them.
func quartiles(values []float64) (q1, q2, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	m := len(v)
	if m == 1 {
		return v[0], v[0], v[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func median(values []float64) float64 {
	_, q2, _ := quartiles(values)
	return q2
}

func readResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// untracedValues collects one metric's values over a workload's
// untraced runs.
func (r *results) untracedValues(workload, name string) []float64 {
	var vs []float64
	for _, run := range r.Runs {
		if m, ok := run.Metrics[name]; ok && run.Workload == workload && !run.Trace {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// compareFiles prints, for every workload and end-to-end metric, both
// sides' medians and quartiles, how much worse b is than a, the bound,
// and a verdict: worse (beyond the bound), unresolved (either side's
// interquartile spread is wider than the bound) or ok.
func compareFiles(w io.Writer, bf *benchmarkFile, pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "a: %s (%d runs, commit %s)\nb: %s (%d runs, commit %s)\n", pathA, len(a.Runs), a.Env.Commit, pathB, len(b.Runs), b.Env.Commit)
	fmt.Fprintf(w, "%-15s %-20s %12s %21s %12s %21s %8s %6s  %s\n",
		"workload", "metric", "a median", "a quartiles", "b median", "b quartiles", "worse", "bound", "verdict")
	for _, d := range workloads {
		for _, m := range bf.EndToEnd {
			va, vb := a.untracedValues(d.name, m.Name), b.untracedValues(d.name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			worse := (b2 - a2) / a2
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case (a3-a1)/a2 > m.Bound || (b3-b1)/b2 > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "worse"
			}
			fmt.Fprintf(w, "%-15s %-20s %12.4f [%9.4f,%9.4f] %12.4f [%9.4f,%9.4f] %+7.2f%% %5.0f%%  %s\n",
				d.name, m.Name, a2, a1, a3, b2, b1, b3, 100*worse, 100*m.Bound, verdict)
		}
	}
	return nil
}
