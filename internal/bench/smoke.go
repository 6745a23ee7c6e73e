package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
)

// SmokeResult is one parsed `go test -bench` result line, the unit of the
// CI bench-smoke job's artifact (bench-smoke.json): proof that every
// benchmark still runs, one iteration each. It is not a measurement — the
// performance trajectory is BENCHMARK.json's metrics, recorded in
// CHANGES.md's "Measurements" sections.
type SmokeResult struct {
	// Name is the benchmark name including the GOMAXPROCS suffix
	// (e.g. "BenchmarkPublishFanout/brokers=4-8").
	Name string `json:"name"`
	// Iterations is b.N for the recorded run.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the headline metric.
	NsPerOp float64 `json:"ns_per_op"`
	// Metrics holds every further "value unit" pair on the line
	// (B/op, allocs/op, custom ReportMetric units).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// SmokeReport is the artifact envelope.
type SmokeReport struct {
	// Benchtime echoes the -benchtime the smoke ran with.
	Benchtime string `json:"benchtime"`
	// Results lists every benchmark in output order.
	Results []SmokeResult `json:"results"`
}

// ParseBenchOutput extracts benchmark result lines from `go test -bench`
// output. Non-benchmark lines (ok/PASS/pkg headers) are skipped; malformed
// benchmark lines are an error so CI fails loudly rather than uploading an
// empty artifact.
func ParseBenchOutput(r io.Reader) ([]SmokeResult, error) {
	var out []SmokeResult
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("bench: short benchmark line %q", line)
		}
		n, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bench: bad iteration count in %q: %w", line, err)
		}
		res := SmokeResult{Name: fields[0], Iterations: n}
		// The remainder alternates "value unit".
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bench: bad metric value in %q: %w", line, err)
			}
			unit := fields[i+1]
			if unit == "ns/op" {
				res.NsPerOp = v
				continue
			}
			if res.Metrics == nil {
				res.Metrics = make(map[string]float64)
			}
			res.Metrics[unit] = v
		}
		out = append(out, res)
	}
	return out, sc.Err()
}

// CheckZeroAllocs parses `go test -bench -benchmem` output from r and
// fails if any benchmark matching pattern reports more than zero
// allocs/op — the CI gate that keeps the indexed match path
// allocation-free. Matching benchmarks missing the allocs/op metric (run
// without -benchmem) and patterns matching nothing are errors too: a
// silently toothless gate is worse than a failing one.
func CheckZeroAllocs(r io.Reader, pattern string) error {
	re, err := regexp.Compile(pattern)
	if err != nil {
		return fmt.Errorf("bench: bad pattern %q: %w", pattern, err)
	}
	results, err := ParseBenchOutput(r)
	if err != nil {
		return err
	}
	matched := 0
	for _, res := range results {
		if !re.MatchString(res.Name) {
			continue
		}
		matched++
		allocs, ok := res.Metrics["allocs/op"]
		if !ok {
			return fmt.Errorf("bench: %s has no allocs/op metric (run with -benchmem)", res.Name)
		}
		if allocs > 0 {
			return fmt.Errorf("bench: %s allocates %.0f allocs/op, want 0", res.Name, allocs)
		}
	}
	if matched == 0 {
		return fmt.Errorf("bench: no benchmark matched %q", pattern)
	}
	return nil
}

// WriteSmokeReport parses bench output from r and writes the JSON artifact
// to w. An output with zero benchmark lines is an error (a broken smoke
// run must not upload an empty artifact).
func WriteSmokeReport(r io.Reader, w io.Writer, benchtime string) error {
	results, err := ParseBenchOutput(r)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("bench: no benchmark results in input")
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(SmokeReport{Benchtime: benchtime, Results: results})
}
