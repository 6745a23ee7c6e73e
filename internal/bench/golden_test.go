package bench

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "re-record testdata/<ID>.txt from the tables as they are now")

// tables memoises each experiment's table at Seed, so the golden test and
// the shape tests pay for every experiment once per test run.
var tables = map[string]Table{}

// table returns experiment id's table at Seed.
func table(id string) Table {
	if tb, ok := tables[id]; ok {
		return tb
	}
	for _, e := range Experiments {
		if e.ID == id {
			tables[id] = e.Run(Seed)
			return tables[id]
		}
	}
	panic("bench: no experiment " + id)
}

// TestGolden compares every table, rendered as rebeca-bench -run <ID>
// prints it, to testdata/<ID>.txt. A count that moves on purpose is
// re-recorded with -update, and the move shows as a diff of that file.
func TestGolden(t *testing.T) {
	for _, e := range Experiments {
		t.Run(e.ID, func(t *testing.T) {
			path := filepath.Join("testdata", e.ID+".txt")
			got := []byte(fmt.Sprintln(table(e.ID)))
			want, err := os.ReadFile(path)
			if bytes.Equal(got, want) {
				return
			}
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("re-recorded %s", path)
				return
			}
			if err != nil {
				t.Fatalf("%v (record it: go test ./internal/bench -run TestGolden -update)", err)
			}
			t.Errorf("%s differs from %s (if the move is meant, re-record: go test ./internal/bench -run TestGolden -update):\n%s",
				e.ID, path, lineDiff(string(want), string(got)))
		})
	}
}

// lineDiff lists the lines where want and got differ.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n  want %q\n  got  %q\n", i+1, wl, gl)
		}
	}
	return b.String()
}
