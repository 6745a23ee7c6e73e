package bench

import (
	"strconv"
	"strings"
	"testing"
)

// parsePct turns "87.5%" back into 0.875.
func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("bad pct %q: %v", s, err)
	}
	return v / 100
}

func parseInt(t *testing.T, s string) int {
	t.Helper()
	v, err := strconv.Atoi(s)
	if err != nil {
		t.Fatalf("bad int %q: %v", s, err)
	}
	return v
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad float %q: %v", s, err)
	}
	return v
}

func rowsByFirst(tb Table) map[string][]string {
	out := make(map[string][]string)
	for _, r := range tb.Rows {
		out[r[0]] = r
	}
	return out
}

func TestE1Shape(t *testing.T) {
	tb := table("E1")
	rows := rowsByFirst(tb)
	if got := parseInt(t, rows["transparent"][3]); got != 0 {
		t.Errorf("transparent lost %d", got)
	}
	if got := parseInt(t, rows["transparent"][5]); got != 0 {
		t.Errorf("transparent fifo violations %d", got)
	}
	jediLost := parseInt(t, rows["jedi"][3])
	naiveLost := parseInt(t, rows["naive"][3])
	if jediLost == 0 {
		t.Error("jedi should lose in-flight traffic")
	}
	if naiveLost <= jediLost {
		t.Errorf("naive (%d) should lose more than jedi (%d)", naiveLost, jediLost)
	}
}

func TestE2Shape(t *testing.T) {
	tb := table("E2")
	rows := rowsByFirst(tb)
	// Intra-broker moves are free in both deployments.
	if v := parseF(t, rows["replicated"][1]); v != 0 {
		t.Errorf("replicated intra-broker cost = %v, want 0", v)
	}
	// Pre-subscription covers the just-before-arrival reading; reactive
	// misses it.
	if cov := parsePct(t, rows["replicated"][3]); cov < 0.99 {
		t.Errorf("replicated inter coverage = %v", cov)
	}
	if cov := parsePct(t, rows["reactive"][3]); cov > 0.2 {
		t.Errorf("reactive inter coverage = %v, want ~0", cov)
	}
}

func TestE3Shape(t *testing.T) {
	tb := table("E3")
	// Group rows in pairs: simple then covering for each size.
	for i := 0; i+1 < len(tb.Rows); i += 2 {
		simple, covering := tb.Rows[i], tb.Rows[i+1]
		if simple[0] != covering[0] {
			t.Fatalf("row pairing broken: %v vs %v", simple, covering)
		}
		se, ce := parseInt(t, simple[3]), parseInt(t, covering[3])
		if ce >= se {
			t.Errorf("size %s: covering entries %d !< simple %d", simple[0], ce, se)
		}
		sd, cd := parseInt(t, simple[5]), parseInt(t, covering[5])
		if sd != cd {
			t.Errorf("size %s: deliveries differ %d vs %d", simple[0], sd, cd)
		}
	}
}

func TestE4Shape(t *testing.T) {
	tb := table("E4")
	rows := rowsByFirst(tb)
	plainPub := parseF(t, rows["plain"][1])
	replPub := parseF(t, rows["replicated"][1])
	// Publish-path overhead of the replicator is zero or near-zero.
	if replPub > plainPub+1 {
		t.Errorf("replicated publish cost %v vs plain %v", replPub, plainPub)
	}
	// Subscribe carries the replica fan-out (direct messages).
	replSub := parseF(t, rows["replicated"][2])
	plainSub := parseF(t, rows["plain"][2])
	if replSub <= plainSub {
		t.Errorf("replicated subscribe should cost more: %v vs %v", replSub, plainSub)
	}
}

func TestE5Shape(t *testing.T) {
	tb := table("E5")
	rows := rowsByFirst(tb)
	rep := parsePct(t, rows["replicated"][1])
	rea := parsePct(t, rows["reactive"][1])
	flo := parsePct(t, rows["flooding"][1])
	if rep < 0.85 {
		t.Errorf("replicated pre-arrival coverage = %v", rep)
	}
	if rea > 0.2 {
		t.Errorf("reactive pre-arrival coverage = %v, want ~0", rea)
	}
	if flo < rep-0.1 {
		t.Errorf("flooding (%v) should be at least replicated (%v)", flo, rep)
	}
	// Flooding pays with replicas everywhere.
	floVCs := parseInt(t, rows["flooding"][6])
	repVCs := parseInt(t, rows["replicated"][6])
	if floVCs <= repVCs {
		t.Errorf("flooding VCs (%d) should exceed replicated (%d)", floVCs, repVCs)
	}
}

func TestE6Shape(t *testing.T) {
	tb := table("E6")
	rows := rowsByFirst(tb)
	lineVC := parseInt(t, rows["line"][5])
	completeVC := parseInt(t, rows["complete"][5])
	if completeVC <= lineVC {
		t.Errorf("complete nlb VCs (%d) should exceed line (%d)", completeVC, lineVC)
	}
	lineWaste := parseInt(t, rows["line"][4])
	completeWaste := parseInt(t, rows["complete"][4])
	if completeWaste <= lineWaste {
		t.Errorf("complete nlb waste (%d) should exceed line (%d)", completeWaste, lineWaste)
	}
	// Grid coverage should not trail the line's by much (movement is on
	// the grid, whose nlb is a superset of line coverage patterns).
	if cov := parsePct(t, rows["grid4"][2]); cov < 0.8 {
		t.Errorf("grid4 pre-arrival coverage = %v", cov)
	}
}

func TestE7Shape(t *testing.T) {
	tb := table("E7")
	rows := rowsByFirst(tb)
	ub := parseInt(t, rows["unbounded"][3])
	comb := parseInt(t, rows["combined(100ms,5)"][3])
	if comb >= ub {
		t.Errorf("combined policy bytes (%d) should undercut unbounded (%d)", comb, ub)
	}
	ubCov := parsePct(t, rows["unbounded"][1])
	combCov := parsePct(t, rows["combined(100ms,5)"][1])
	if combCov > ubCov+1e-9 {
		t.Error("bounded policy cannot beat unbounded coverage")
	}
}

func TestE8Shape(t *testing.T) {
	tb := table("E8")
	// Rows come in (private, shared) pairs per k.
	for i := 0; i+1 < len(tb.Rows); i += 2 {
		private, shared := tb.Rows[i], tb.Rows[i+1]
		k := parseInt(t, private[0])
		pb, sb := parseInt(t, private[2]), parseInt(t, shared[2])
		if k >= 8 && sb >= pb {
			t.Errorf("k=%d: shared bytes %d !< private %d", k, sb, pb)
		}
		if cov := parsePct(t, shared[4]); cov < 0.99 {
			t.Errorf("k=%d: shared replay coverage %v", k, cov)
		}
	}
}

func TestE9Shape(t *testing.T) {
	tb := table("E9")
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	zero := tb.Rows[0]
	heavy := tb.Rows[2]
	if got := parseInt(t, zero[4]); got != 0 {
		t.Errorf("no-teleport run has %d exception activations", got)
	}
	if got := parseInt(t, heavy[4]); got == 0 {
		t.Error("teleporting run should trigger exception activations")
	}
	if cov := parsePct(t, heavy[3]); cov < 0.5 {
		t.Errorf("live coverage should survive teleports, got %v", cov)
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{
		ID: "EX", Caption: "caption", Header: []string{"a", "bb"},
		Notes: "shape note",
	}
	tb.AddRow("1", "2")
	s := tb.String()
	for _, want := range []string{"EX", "caption", "a", "bb", "1", "2", "shape note"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}
