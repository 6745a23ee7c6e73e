// rebeca-bench prints the paper's evaluation tables (E1–E10,
// internal/bench.Experiments) in the style of a paper's results section.
// internal/bench/testdata holds each table as printed at the default seed.
//
// Usage:
//
//	rebeca-bench                 # run every experiment
//	rebeca-bench -run E5 -seed 7 # one experiment, custom seed
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"rebeca/internal/bench"
)

func main() {
	ids := make([]string, len(bench.Experiments))
	for i, e := range bench.Experiments {
		ids[i] = e.ID
	}
	run := flag.String("run", "all", "experiment to run: all, "+strings.Join(ids, ", "))
	seed := flag.Int64("seed", bench.Seed, "deterministic experiment seed")
	flag.Parse()

	all := strings.EqualFold(*run, "all")
	found := false
	for _, e := range bench.Experiments {
		if all || strings.EqualFold(*run, e.ID) {
			fmt.Println(e.Run(*seed))
			found = true
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (want one of %s)\n", *run, strings.Join(ids, ", "))
		os.Exit(2)
	}
}
