// Command benchmark is the repository's performance yardstick: four named
// workloads driven through the public entry points (rebeca.NewLive,
// rebeca.New, sim.Scenario.Run), end-to-end metrics from an untraced run,
// and per-layer metrics from timing each module's exported functions on
// the same generated inputs. See README.md for what each number means and
// BENCHMARK.json (repository root) for directions and regression bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

func main() {
	if len(os.Args) == 2 && os.Args[1] == warmFlag {
		warmMain()
	}
	var (
		workload = flag.String("workload", "", "run one workload ("+fmt.Sprint(workloadNames)+"); default all four")
		seed     = flag.Int64("seed", 2003, "every input derives from it: filters, attribute values, sim seed")
		seconds  = flag.Float64("seconds", 10, "measured length of each run")
		trace    = flag.Int("trace", 0, "1: also time every layer, write the span trace and report the per-layer metrics")
		repeat   = flag.Int("repeat", 1, "run the set N times, seeds seed..seed+N-1, and record median and quartiles")
		outDir   = flag.String("out", "benchmark/out", "where traces, result sets and scratch files go")
		agree    = flag.Bool("agree", false, "compare two result sets: -agree a.json b.json")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1, *repeat, *outDir, *agree, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, trace bool, repeat int, outDir string, agree bool, args []string) error {
	if agree {
		if len(args) != 2 {
			return fmt.Errorf("-agree takes two result files")
		}
		return agreeFiles(args[0], args[1])
	}
	if len(args) > 0 {
		return fmt.Errorf("unexpected arguments %v", args)
	}
	if seconds <= 0 || repeat < 1 {
		return fmt.Errorf("-seconds and -repeat must be positive")
	}
	names := workloadNames
	if workload != "" {
		names = []string{workload}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	fmt.Printf("# rebeca benchmark: seed %d, %.3g s per run, GOMAXPROCS %d; all live traffic crosses the host loopback; WAL fsync off\n",
		seed, seconds, runtime.GOMAXPROCS(0))
	set := resultSet{Seconds: seconds, Runs: map[string][]report{}}
	for r := 0; r < repeat; r++ {
		for _, name := range names {
			rep, err := runWorkload(name, seed+int64(r), seconds, trace, outDir)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			rep.print(os.Stdout, trace)
			set.Runs[name] = append(set.Runs[name], *rep)
		}
	}
	if repeat > 1 {
		path := fmt.Sprintf("%s/results-seed%d.json", outDir, seed)
		if err := set.write(path); err != nil {
			return err
		}
		set.printSpreads(os.Stdout)
		fmt.Printf("# result set written to %s\n", path)
	}
	for _, reps := range set.Runs {
		for _, rep := range reps {
			if !rep.Correct {
				return fmt.Errorf("%s (seed %d) failed its correctness check: %s", rep.Workload, rep.Seed, rep.Why)
			}
		}
	}
	return nil
}

// metric is one named number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run of one workload.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Correct   bool              `json:"correct"`
	Why       string            `json:"why,omitempty"` // first failed check
	Attempted int               `json:"attempted"`     // deliveries the oracle expected
	Failed    int               `json:"failed"`        // lost + duplicated + out of order + spurious
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	Notes     []string          `json:"notes,omitempty"` // sample counts, tails, caveats
	Elapsed   time.Duration     `json:"-"`
}

// print writes every metric as "name unit value", then the one-line JSON
// result the driver reads: the end-to-end metrics of an untraced run, the
// per-layer metrics of a traced one.
func (r *report) print(w *os.File, trace bool) {
	fmt.Fprintf(w, "## %s seed %d (%.1f s)\n", r.Workload, r.Seed, r.Elapsed.Seconds())
	for _, d := range endToEnd {
		fmt.Fprintf(w, "%s %s %v\n", d.name, d.unit, r.EndToEnd[d.name].Value)
	}
	for _, d := range perLayer {
		if m, ok := r.PerLayer[d.name]; ok {
			fmt.Fprintf(w, "%s %s %v\n", d.name, d.unit, m.Value)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	metrics := r.EndToEnd
	if trace {
		metrics = r.PerLayer
	}
	line, _ := json.Marshal(struct { // cannot fail: plain numbers and strings
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	fmt.Fprintf(w, "%s\n", line)
}
