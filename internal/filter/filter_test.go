package filter

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"rebeca/internal/message"
)

func note(attrs map[string]message.Value) message.Notification {
	return message.NewNotification(attrs)
}

func tempNote(loc string, v float64) message.Notification {
	return note(map[string]message.Value{
		"service":      message.String("temperature"),
		AttrLocation:   message.String(loc),
		"value":        message.Float(v),
		"building":     message.String("D3"),
		"floor-number": message.Int(2),
	})
}

func TestConstraintMatches(t *testing.T) {
	n := tempNote("room-1", 21.5)
	tests := []struct {
		c    Constraint
		want bool
	}{
		{Exists("service"), true},
		{Exists("nope"), false},
		{Eq("service", message.String("temperature")), true},
		{Eq("service", message.String("humidity")), false},
		{Ne("service", message.String("humidity")), true},
		{Ne("service", message.String("temperature")), false},
		{Lt("value", message.Float(22)), true},
		{Lt("value", message.Float(21.5)), false},
		{Le("value", message.Float(21.5)), true},
		{Gt("value", message.Int(21)), true},
		{Ge("value", message.Float(21.5)), true},
		{Gt("value", message.Float(30)), false},
		{Prefix("location", "room"), true},
		{Prefix("location", "office"), false},
		{Suffix("location", "-1"), true},
		{Contains("location", "oom"), true},
		{Contains("location", "xyz"), false},
		{In("location", message.String("room-1"), message.String("room-2")), true},
		{In("location", message.String("room-3")), false},
		// Ordering against a non-comparable kind fails closed.
		{Lt("service", message.Int(5)), false},
		// String ops on non-strings fail closed.
		{Prefix("value", "2"), false},
		// Unresolved myloc never matches.
		{Constraint{Attr: AttrLocation, Op: OpMyloc}, false},
	}
	for _, tt := range tests {
		if got := tt.c.Matches(n); got != tt.want {
			t.Errorf("%s .Matches = %v, want %v", tt.c, got, tt.want)
		}
	}
}

func TestConstraintMissingAttribute(t *testing.T) {
	n := note(map[string]message.Value{"a": message.Int(1)})
	for _, c := range []Constraint{
		Eq("b", message.Int(1)), Ne("b", message.Int(1)), Exists("b"),
		Lt("b", message.Int(1)), In("b", message.Int(1)),
	} {
		if c.Matches(n) {
			t.Errorf("%s should not match when attribute missing", c)
		}
	}
}

func TestFilterMatchesConjunction(t *testing.T) {
	f := New(
		Eq("service", message.String("temperature")),
		Le("value", message.Float(25)),
	)
	if !f.Matches(tempNote("room-1", 21)) {
		t.Error("conjunction should match")
	}
	if f.Matches(tempNote("room-1", 26)) {
		t.Error("violated constraint should fail the filter")
	}
	if !All().Matches(tempNote("x", 0)) {
		t.Error("All() must match everything")
	}
}

func TestFilterKeyCanonical(t *testing.T) {
	a := New(Eq("x", message.Int(1)), Eq("a", message.Int(2)))
	b := New(Eq("a", message.Int(2)), Eq("x", message.Int(1)))
	if a.Key() != b.Key() {
		t.Errorf("keys differ for reordered constraints: %q vs %q", a.Key(), b.Key())
	}
	if All().Key() != "*" {
		t.Errorf("All().Key() = %q, want *", All().Key())
	}
}

// TestNewCanonicalOrder holds New's order to its definition — attribute,
// then operator, then the operand's String rendering, stable among equals
// — on mixed-kind operands, where renderings and values order differently
// (Int(10) renders before Int(9), a quoted string before a number), and
// checks that sorting allocates nothing beyond the filter's own slice.
func TestNewCanonicalOrder(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	mixed := []Constraint{
		Eq("a", message.Int(10)), Eq("a", message.Int(9)), Eq("a", message.String("9")),
		Eq("a", message.Float(9.5)), Eq("a", message.Bool(true)), Eq("a", message.Value{}),
		Gt("a", message.Int(-1)), In("a", message.Int(1)), In("a", message.String("x")),
	}
	for trial := 0; trial < 500; trial++ {
		cs := make([]Constraint, 1+r.Intn(6))
		for i := range cs {
			if r.Intn(2) == 0 {
				cs[i] = mixed[r.Intn(len(mixed))]
			} else {
				cs[i] = randomWideConstraint(r, []string{"a", "b"}[r.Intn(2)])
			}
		}
		want := slices.Clone(cs)
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].Attr != want[j].Attr {
				return want[i].Attr < want[j].Attr
			}
			if want[i].Op != want[j].Op {
				return want[i].Op < want[j].Op
			}
			return want[i].Val.String() < want[j].Val.String()
		})
		got := New(cs...)
		for i := range want {
			if g, w := got.cs[i], want[i]; g.Attr != w.Attr || g.Op != w.Op || g.String() != w.String() {
				t.Fatalf("trial %d: New order %s, want %s", trial, got, Filter{cs: want})
			}
		}
	}
	cs := []Constraint{Eq("b", message.Int(10)), Eq("b", message.Int(9)), Eq("a", message.String("x")), In("a")}
	if n := testing.AllocsPerRun(100, func() { New(cs...) }); n != 1 {
		t.Errorf("New allocates %v times, want 1 (the constraint slice)", n)
	}
}

func TestCoversBasics(t *testing.T) {
	tests := []struct {
		name string
		f, g Filter
		want bool
	}{
		{"identical", New(Eq("a", message.Int(1))), New(Eq("a", message.Int(1))), true},
		{"all covers anything", All(), New(Eq("a", message.Int(1))), true},
		{"specific does not cover all", New(Eq("a", message.Int(1))), All(), false},
		{"wider range covers narrower", New(Lt("a", message.Int(10))), New(Lt("a", message.Int(5))), true},
		{"narrower does not cover wider", New(Lt("a", message.Int(5))), New(Lt("a", message.Int(10))), false},
		{"le covers lt same bound", New(Le("a", message.Int(5))), New(Lt("a", message.Int(5))), true},
		{"lt does not cover le same bound", New(Lt("a", message.Int(5))), New(Le("a", message.Int(5))), false},
		{"range covers eq inside", New(Ge("a", message.Int(0)), Le("a", message.Int(10))), New(Eq("a", message.Int(5))), true},
		{"range not covers eq outside", New(Ge("a", message.Int(0)), Le("a", message.Int(10))), New(Eq("a", message.Int(50))), false},
		{"in covers subset in", New(In("a", message.Int(1), message.Int(2), message.Int(3))), New(In("a", message.Int(1), message.Int(3))), true},
		{"in not covers superset", New(In("a", message.Int(1))), New(In("a", message.Int(1), message.Int(2))), false},
		{"prefix covers longer prefix", New(Prefix("s", "ro")), New(Prefix("s", "room")), true},
		{"prefix covers eq", New(Prefix("s", "ro")), New(Eq("s", message.String("room-1"))), true},
		{"suffix covers eq", New(Suffix("s", "-1")), New(Eq("s", message.String("room-1"))), true},
		{"contains covers prefix", New(Contains("s", "oo")), New(Prefix("s", "roo")), true},
		{"exists covers everything on attr", New(Exists("a")), New(Gt("a", message.Int(3))), true},
		{"ne covers eq other value", New(Ne("a", message.Int(1))), New(Eq("a", message.Int(2))), true},
		{"ne not covers eq same value", New(Ne("a", message.Int(1))), New(Eq("a", message.Int(1))), false},
		{"ne covered by disjoint range", New(Ne("a", message.Int(5))), New(Lt("a", message.Int(3))), true},
		{"fewer constraints cover more", New(Eq("a", message.Int(1))), New(Eq("a", message.Int(1)), Eq("b", message.Int(2))), true},
		{"more constraints do not cover fewer", New(Eq("a", message.Int(1)), Eq("b", message.Int(2))), New(Eq("a", message.Int(1))), false},
		{"disjoint attrs no covering", New(Eq("a", message.Int(1))), New(Eq("b", message.Int(1))), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.f.Covers(tt.g); got != tt.want {
				t.Errorf("(%s).Covers(%s) = %v, want %v", tt.f, tt.g, got, tt.want)
			}
			// The covering router runs this per forwarded entry per
			// subscribe: Constraint.Covers must not allocate.
			if allocs := testing.AllocsPerRun(10, func() { tt.f.Covers(tt.g) }); allocs != 0 {
				t.Errorf("(%s).Covers(%s) allocates %v times, want 0", tt.f, tt.g, allocs)
			}
		})
	}
}

// randomSimpleFilter builds small filters over a tiny attribute/value domain
// so that random notifications have a decent chance of matching.
func randomSimpleFilter(r *rand.Rand) Filter {
	attrs := []string{"a", "b", "c"}
	var cs []Constraint
	for i, n := 0, 1+r.Intn(2); i < n; i++ {
		attr := attrs[r.Intn(len(attrs))]
		v := message.Int(int64(r.Intn(6)))
		switch r.Intn(6) {
		case 0:
			cs = append(cs, Eq(attr, v))
		case 1:
			cs = append(cs, Ne(attr, v))
		case 2:
			cs = append(cs, Lt(attr, v))
		case 3:
			cs = append(cs, Ge(attr, v))
		case 4:
			cs = append(cs, In(attr, v, message.Int(int64(r.Intn(6)))))
		default:
			cs = append(cs, Exists(attr))
		}
	}
	return New(cs...)
}

func randomSmallNote(r *rand.Rand) message.Notification {
	attrs := map[string]message.Value{}
	for _, a := range []string{"a", "b", "c"} {
		if r.Intn(4) > 0 {
			attrs[a] = message.Int(int64(r.Intn(6)))
		}
	}
	return note(attrs)
}

// Property: covering is sound — if f.Covers(g), every notification matching
// g matches f.
func TestCoversSoundProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	checked := 0
	for i := 0; i < 30000 && checked < 2000; i++ {
		f := randomSimpleFilter(r)
		g := randomSimpleFilter(r)
		if !f.Covers(g) {
			continue
		}
		checked++
		for j := 0; j < 50; j++ {
			n := randomSmallNote(r)
			if g.Matches(n) && !f.Matches(n) {
				t.Fatalf("covering unsound: f=%s g=%s n=%s", f, g, n)
			}
		}
	}
	if checked < 100 {
		t.Fatalf("too few covering pairs exercised: %d", checked)
	}
}

func TestLocationDependentAndResolve(t *testing.T) {
	f := AtLocation(Eq("service", message.String("temperature")))
	if !f.LocationDependent() {
		t.Fatal("AtLocation filter should be location dependent")
	}
	if f.Matches(tempNote("room-1", 20)) {
		t.Error("unresolved myloc must not match")
	}
	r := f.ResolveMyloc([]string{"room-1", "room-2"})
	if r.LocationDependent() {
		t.Error("resolved filter should not be location dependent")
	}
	if !r.Matches(tempNote("room-1", 20)) || !r.Matches(tempNote("room-2", 20)) {
		t.Error("resolved filter should match in-scope locations")
	}
	if r.Matches(tempNote("room-3", 20)) {
		t.Error("resolved filter must not match out-of-scope locations")
	}
	// Re-resolving at a different broker yields that broker's scope.
	r2 := f.ResolveMyloc([]string{"hall"})
	if !r2.Matches(tempNote("hall", 20)) || r2.Matches(tempNote("room-1", 20)) {
		t.Error("per-broker resolution wrong")
	}
}

func TestAndConjunction(t *testing.T) {
	f := New(Eq("a", message.Int(1)))
	g := New(Lt("b", message.Int(5)))
	fg := f.And(g)
	n := note(map[string]message.Value{"a": message.Int(1), "b": message.Int(3)})
	if !fg.Matches(n) {
		t.Error("And should require both")
	}
	if fg.Matches(note(map[string]message.Value{"a": message.Int(1), "b": message.Int(9)})) {
		t.Error("And must enforce second operand")
	}
	if fg.Len() != 2 {
		t.Errorf("And Len = %d, want 2", fg.Len())
	}
}

func TestConstraintsReturnsCopy(t *testing.T) {
	f := New(Eq("a", message.Int(1)))
	cs := f.Constraints()
	cs[0] = Eq("a", message.Int(99))
	if !f.Matches(note(map[string]message.Value{"a": message.Int(1)})) {
		t.Error("mutating Constraints() result affected the filter")
	}
}
