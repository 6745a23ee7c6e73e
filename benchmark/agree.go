package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// resultSet is what -repeat writes and -agree reads: every run of every
// workload, so spreads are recomputed from the runs, never from summaries.
type resultSet struct {
	Seconds float64             `json:"seconds"`
	Runs    map[string][]report `json:"runs"`
}

func (s resultSet) write(path string) error {
	data, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readResultSet(path string) (resultSet, error) {
	var s resultSet
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// values collects one end-to-end metric of one workload over the runs.
func (s resultSet) values(workload, name string) []float64 {
	var vs []float64
	for _, rep := range s.Runs[workload] {
		if m, ok := rep.EndToEnd[name]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// printSpreads prints median and quartiles per (metric, workload).
func (s resultSet) printSpreads(w io.Writer) {
	fmt.Fprintf(w, "## spread over runs: metric workload n median q1 q3 iqr/median\n")
	for _, wl := range workloadNames {
		for _, d := range endToEnd {
			name := d.name
			vs := s.values(wl, name)
			if len(vs) == 0 {
				continue
			}
			sp := summarize(vs)
			fmt.Fprintf(w, "%s %s %d %.6g %.6g %.6g %.4f\n", name, wl, sp.N, sp.Median, sp.Q1, sp.Q3, sp.relIQR())
		}
	}
}

// spec is the part of BENCHMARK.json -agree needs.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// worseBy is how much worse b's median is than a's, as a share of a's,
// in the metric's direction (negative = better).
func worseBy(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// agreeFiles compares two result sets of the same code against the bounds
// in BENCHMARK.json: for every (metric, workload) the second median may
// not be worse than the first by more than the metric's bound, and either
// way round, since neither set is "the change".
func agreeFiles(pathA, pathB string) error {
	a, err := readResultSet(pathA)
	if err != nil {
		return err
	}
	b, err := readResultSet(pathB)
	if err != nil {
		return err
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("-agree reads the bounds from BENCHMARK.json in the working directory: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	disagree := 0
	fmt.Printf("## metric workload median_a median_b worse_by bound iqr_a iqr_b verdict\n")
	for _, wl := range workloadNames {
		for _, m := range sp.EndToEnd {
			va, vb := a.values(wl, m.Name), b.values(wl, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			sa, sb := summarize(va), summarize(vb)
			worse := worseBy(m.Better, sa.Median, sb.Median)
			if back := worseBy(m.Better, sb.Median, sa.Median); back > worse {
				worse = back
			}
			verdict := "agree"
			if worse > m.Bound {
				verdict = "DISAGREE"
				disagree++
			}
			fmt.Printf("%s %s %.6g %.6g %.4f %.4f %.4f %.4f %s\n",
				m.Name, wl, sa.Median, sb.Median, worse, m.Bound, sa.relIQR(), sb.relIQR(), verdict)
		}
	}
	if disagree > 0 {
		return fmt.Errorf("%d (metric, workload) pairs differ by more than their bound", disagree)
	}
	return nil
}
