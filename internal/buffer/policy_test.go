package buffer

import (
	"strconv"
	"testing"
	"time"

	"rebeca/internal/message"
)

var t0 = time.Date(2003, 6, 16, 12, 0, 0, 0, time.UTC) // Middleware 2003

func mkNote(pub message.NodeID, seq uint64, body string) message.Notification {
	n := message.NewNotification(map[string]message.Value{
		"body": message.String(body),
	})
	n.ID = message.NotificationID{Publisher: pub, Seq: seq}
	return n
}

func bodies(ns []message.Notification) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		v, _ := n.Get("body")
		out[i] = v.Str()
	}
	return out
}

func eqStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestUnboundedKeepsEverything(t *testing.T) {
	u := NewUnbounded()
	for i := 0; i < 100; i++ {
		u.Add(mkNote("p", uint64(i), strconv.Itoa(i)), t0.Add(time.Duration(i)*time.Second))
	}
	if u.Len() != 100 {
		t.Fatalf("Len = %d, want 100", u.Len())
	}
	snap := u.Snapshot(t0.Add(time.Hour))
	if len(snap) != 100 || bodies(snap)[0] != "0" || bodies(snap)[99] != "99" {
		t.Error("unbounded snapshot wrong")
	}
	u.Clear()
	if u.Len() != 0 {
		t.Error("Clear did not empty buffer")
	}
}

func TestTimeBasedExpiry(t *testing.T) {
	b := NewWindow(10*time.Second, 0)
	b.Add(mkNote("p", 1, "old"), t0)
	b.Add(mkNote("p", 2, "mid"), t0.Add(5*time.Second))
	b.Add(mkNote("p", 3, "new"), t0.Add(12*time.Second))
	got := bodies(b.Snapshot(t0.Add(13 * time.Second)))
	if !eqStrings(got, []string{"mid", "new"}) {
		t.Errorf("snapshot = %v, want [mid new]", got)
	}
	// Everything expires eventually.
	if n := len(b.Snapshot(t0.Add(time.Hour))); n != 0 {
		t.Errorf("after TTL all should expire, got %d", n)
	}
}

func TestTimeBasedBoundaryExactTTL(t *testing.T) {
	b := NewWindow(10*time.Second, 0)
	b.Add(mkNote("p", 1, "edge"), t0)
	// Exactly at TTL the entry is still live (strictly-older-than deletion,
	// matching §4 "published more than t seconds ago").
	if got := bodies(b.Snapshot(t0.Add(10 * time.Second))); !eqStrings(got, []string{"edge"}) {
		t.Errorf("entry at exact TTL should survive, got %v", got)
	}
	if got := b.Snapshot(t0.Add(10*time.Second + time.Nanosecond)); len(got) != 0 {
		t.Errorf("entry beyond TTL should be gone, got %v", bodies(got))
	}
}

func TestLastNEviction(t *testing.T) {
	b := NewWindow(0, 3)
	for i := 0; i < 5; i++ {
		b.Add(mkNote("p", uint64(i), strconv.Itoa(i)), t0)
	}
	got := bodies(b.Snapshot(t0))
	if !eqStrings(got, []string{"2", "3", "4"}) {
		t.Errorf("LastN = %v, want [2 3 4]", got)
	}
	if b.Len() != 3 {
		t.Errorf("Len = %d, want 3", b.Len())
	}
}

func TestCombinedBounds(t *testing.T) {
	b := NewWindow(10*time.Second, 2)
	b.Add(mkNote("p", 1, "a"), t0)
	b.Add(mkNote("p", 2, "b"), t0.Add(time.Second))
	b.Add(mkNote("p", 3, "c"), t0.Add(2*time.Second))
	// Count bound kicks in first.
	if got := bodies(b.Snapshot(t0.Add(3 * time.Second))); !eqStrings(got, []string{"b", "c"}) {
		t.Errorf("count bound: %v, want [b c]", got)
	}
	// TTL kicks in later.
	if got := bodies(b.Snapshot(t0.Add(11*time.Second + 500*time.Millisecond))); !eqStrings(got, []string{"c"}) {
		t.Errorf("ttl bound: %v, want [c]", got)
	}
}

func TestSemanticNullification(t *testing.T) {
	menu := func(rest, dish string, seq uint64) message.Notification {
		n := message.NewNotification(map[string]message.Value{
			"restaurant": message.String(rest),
			"body":       message.String(dish),
		})
		n.ID = message.NotificationID{Publisher: "pub", Seq: seq}
		return n
	}
	b := NewSemantic(NullifyByKey("restaurant"), 0)
	b.Add(menu("roma", "pasta", 1), t0)
	b.Add(menu("sushi-ya", "maki", 2), t0)
	b.Add(menu("roma", "pizza", 3), t0) // supersedes pasta
	got := bodies(b.Snapshot(t0))
	if !eqStrings(got, []string{"maki", "pizza"}) {
		t.Errorf("semantic buffer = %v, want [maki pizza]", got)
	}
}

func TestSemanticCap(t *testing.T) {
	b := NewSemantic(func(_, _ message.Notification) bool { return false }, 2)
	for i := 0; i < 4; i++ {
		b.Add(mkNote("p", uint64(i), strconv.Itoa(i)), t0)
	}
	if got := bodies(b.Snapshot(t0)); !eqStrings(got, []string{"2", "3"}) {
		t.Errorf("capped semantic = %v, want [2 3]", got)
	}
}

func TestSemanticNullifyByKeyMissingAttr(t *testing.T) {
	f := NullifyByKey("k")
	with := message.NewNotification(map[string]message.Value{"k": message.Int(1)})
	without := message.NewNotification(map[string]message.Value{"x": message.Int(1)})
	if f(with, without) || f(without, with) {
		t.Error("missing key attribute must not nullify")
	}
}

// windowBounds are the bound settings the window tests cover, each with and
// without supersession: ttl in {0, 50 ms} × n in {0, 7}.
var windowBounds = []struct {
	name string
	ttl  time.Duration
	n    int
}{
	{"unbounded", 0, 0},
	{"time", 50 * time.Millisecond, 0},
	{"lastn", 0, 7},
	{"combined", 50 * time.Millisecond, 7},
}

func TestPoliciesPreserveArrivalOrder(t *testing.T) {
	for _, wb := range windowBounds {
		for _, semantic := range []bool{false, true} {
			name := wb.name
			if semantic {
				name += "+semantic"
			}
			t.Run(name, func(t *testing.T) {
				p := &Window{ttl: wb.ttl, n: wb.n}
				if semantic {
					p.supersedes = NullifyByKey("body")
				}
				for i := 0; i < 10; i++ {
					p.Add(mkNote("p", uint64(i), strconv.Itoa(i)), t0.Add(time.Duration(i)))
				}
				got := bodies(p.Snapshot(t0.Add(10)))
				want := 10
				if wb.n > 0 {
					want = wb.n
				}
				if len(got) != want {
					t.Fatalf("kept %d of 10 (%v), want %d", len(got), got, want)
				}
				for i, b := range got {
					if b != strconv.Itoa(10-want+i) {
						t.Fatalf("order broken: %v", got)
					}
				}
			})
		}
	}
}

func TestBytesAccounting(t *testing.T) {
	p := NewUnbounded()
	if p.Bytes() != 0 {
		t.Error("empty buffer should have 0 bytes")
	}
	p.Add(mkNote("p", 1, "hello"), t0)
	one := p.Bytes()
	if one <= 0 {
		t.Error("Bytes should be positive after Add")
	}
	p.Add(mkNote("p", 2, "hello"), t0)
	if p.Bytes() != 2*one {
		t.Errorf("Bytes = %d, want %d", p.Bytes(), 2*one)
	}
}

// --- Shared buffer -----------------------------------------------------

func TestSharedRefcounting(t *testing.T) {
	s := NewShared()
	d1 := s.NewDigest()
	d2 := s.NewDigest()
	n := mkNote("p", 1, "shared")
	d1.Add(n, t0)
	d2.Add(n, t0)
	if s.Len() != 1 {
		t.Fatalf("store should hold one distinct notification, got %d", s.Len())
	}
	d1.Clear()
	if s.Len() != 1 {
		t.Error("store must keep entry while d2 references it")
	}
	d2.Clear()
	if s.Len() != 0 {
		t.Error("store must free entry once last reference dropped")
	}
}

func TestSharedSnapshotContent(t *testing.T) {
	s := NewShared()
	d := s.NewDigest()
	for i := 0; i < 5; i++ {
		d.Add(mkNote("p", uint64(i), strconv.Itoa(i)), t0)
	}
	got := bodies(d.Snapshot(t0))
	if !eqStrings(got, []string{"0", "1", "2", "3", "4"}) {
		t.Errorf("digest snapshot = %v", got)
	}
}

func TestSharedMemorySavings(t *testing.T) {
	// E8's claim in miniature: k digests over identical traffic should cost
	// ~1 content copy + k id lists, far less than k private copies.
	const k = 10
	s := NewShared()
	digests := make([]*Digest, k)
	for i := range digests {
		digests[i] = s.NewDigest()
	}
	privates := make([]Policy, k)
	for i := range privates {
		privates[i] = NewUnbounded()
	}
	for seq := uint64(0); seq < 50; seq++ {
		n := mkNote("p", seq, "some notification body with realistic length")
		for i := 0; i < k; i++ {
			digests[i].Add(n, t0)
			privates[i].Add(n, t0)
		}
	}
	sharedCost := s.Bytes()
	for _, d := range digests {
		sharedCost += d.Bytes()
	}
	privateCost := 0
	for _, p := range privates {
		privateCost += p.Bytes()
	}
	if sharedCost >= privateCost {
		t.Errorf("shared cost %d should beat private cost %d", sharedCost, privateCost)
	}
}

func TestSharedUnrefUnknownIDHarmless(t *testing.T) {
	s := NewShared()
	s.unref(message.NotificationID{Publisher: "x", Seq: 1}) // must not panic
	if s.Len() != 0 {
		t.Error("unref of unknown id changed store")
	}
}

func TestDigestDoubleAddSameNotification(t *testing.T) {
	s := NewShared()
	d := s.NewDigest()
	n := mkNote("p", 1, "dup")
	d.Add(n, t0)
	d.Add(n, t0)
	if s.Len() != 1 {
		t.Errorf("store should dedupe identical IDs, got %d", s.Len())
	}
	if d.Len() != 2 {
		t.Errorf("digest keeps both observations, got %d", d.Len())
	}
	d.Clear()
	if s.Len() != 0 {
		t.Error("both refs must be released")
	}
}
