// rebeca-bench regenerates the evaluation tables (experiments E1–E9 of
// DESIGN.md) and prints them in the style of a paper's results section.
//
// Usage:
//
//	rebeca-bench                 # run every experiment
//	rebeca-bench -run E5 -seed 7 # one experiment, custom seed
//
//	go test -bench . -benchtime 1x ./... | rebeca-bench -smoke
//	                             # render bench output as the CI smoke
//	                             # artifact (bench-smoke.json) on stdout
//
//	go test -bench MatchIndexed -benchmem ./internal/routing |
//	    rebeca-bench -check-allocs 'BenchmarkMatchIndexed'
//	                             # exit nonzero if a matching benchmark
//	                             # reports >0 allocs/op (CI perf gate)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"rebeca/internal/bench"
)

func main() {
	run := flag.String("run", "all", "experiment to run: all, E1, E2, E3, E3b, E3c, E4, E5, E6, E7, E8, E9, E10")
	seed := flag.Int64("seed", bench.Seed, "deterministic experiment seed")
	smoke := flag.Bool("smoke", false, "read `go test -bench` output on stdin and emit the JSON smoke artifact on stdout")
	benchtime := flag.String("benchtime", "1x", "benchtime label recorded in the -smoke artifact")
	checkAllocs := flag.String("check-allocs", "", "read `go test -bench -benchmem` output on stdin and fail if a benchmark matching this regexp reports >0 allocs/op")
	flag.Parse()

	if *checkAllocs != "" {
		if err := bench.CheckZeroAllocs(os.Stdin, *checkAllocs); err != nil {
			fmt.Fprintln(os.Stderr, "rebeca-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("rebeca-bench: all benchmarks matching %q report 0 allocs/op\n", *checkAllocs)
		return
	}

	if *smoke {
		if err := bench.WriteSmokeReport(os.Stdin, os.Stdout, *benchtime); err != nil {
			fmt.Fprintln(os.Stderr, "rebeca-bench:", err)
			os.Exit(1)
		}
		return
	}

	generators := map[string]func(int64) bench.Table{
		"E1":  bench.E1PhysicalHandover,
		"E2":  bench.E2LogicalAdaptation,
		"E3":  bench.E3Routing,
		"E3b": bench.E3Merging,
		"E3c": bench.E3Advertisements,
		"E4":  bench.E4VirtualClientOverhead,
		"E5":  bench.E5PreSubscription,
		"E6":  bench.E6NlbDegree,
		"E7":  bench.E7BufferPolicies,
		"E8":  bench.E8SharedBuffer,
		"E9":  bench.E9ExceptionMode,
		"E10": bench.E10OverlayReconvergence,
	}
	order := []string{"E1", "E2", "E3", "E3b", "E3c", "E4", "E5", "E6", "E7", "E8", "E9", "E10"}

	switch key := strings.ToUpper(*run); key {
	case "ALL":
		for _, k := range order {
			fmt.Println(generators[k](*seed))
		}
	default:
		switch key {
		case "E3B":
			key = "E3b"
		case "E3C":
			key = "E3c"
		}
		gen, ok := generators[key]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (want one of %s)\n",
				*run, strings.Join(order, ", "))
			os.Exit(2)
		}
		fmt.Println(gen(*seed))
	}
}
