// Package bench implements the experiment harness: one generator per table
// of the paper's evaluation, E1–E10 (Experiments lists them), each
// producing a formatted result table in the style of a paper's results
// section. cmd/rebeca-bench prints them and the root bench_test.go wraps
// them in testing.B benchmarks. testdata/<ID>.txt holds each table as
// rendered at Seed, and TestGolden compares it; go test ./internal/bench
// -run TestGolden -update re-records a table that moves on purpose.
package bench

import (
	"fmt"
	"strings"
)

// Experiment is one of the paper's tables and its generator.
type Experiment struct {
	ID  string
	Run func(seed int64) Table
}

// Experiments lists every table in the order rebeca-bench prints them.
var Experiments = []Experiment{
	{"E1", E1PhysicalHandover},
	{"E2", E2LogicalAdaptation},
	{"E3", E3Routing},
	{"E4", E4VirtualClientOverhead},
	{"E5", E5PreSubscription},
	{"E6", E6NlbDegree},
	{"E7", E7BufferPolicies},
	{"E8", E8SharedBuffer},
	{"E9", E9ExceptionMode},
	{"E10", E10OverlayReconvergence},
}

// Table is one experiment's result: a caption, column headers, and rows.
type Table struct {
	ID      string
	Caption string
	Header  []string
	Rows    [][]string
	// Notes records the expected shape and any caveats.
	Notes string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Caption)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	return b.String()
}

// f2 formats a float with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// pct formats a ratio as a percentage.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// itoa formats an int.
func itoa(v int) string { return fmt.Sprintf("%d", v) }
