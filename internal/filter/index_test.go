package filter

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"rebeca/internal/message"
)

func indexMatchKeys(ix *Index, n message.Notification) []string {
	var out []string
	ix.Match(n, func(key string) { out = append(out, key) })
	sort.Strings(out)
	return out
}

func TestIndexBasicMatch(t *testing.T) {
	ix := NewIndex()
	ix.Add("temp", New(Eq("service", message.String("temperature"))))
	ix.Add("cold", New(
		Eq("service", message.String("temperature")),
		Lt("value", message.Float(5)),
	))
	ix.Add("any", All())

	n := tempNote("room-1", 3)
	got := indexMatchKeys(ix, n)
	want := []string{"any", "cold", "temp"}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("Match = %v, want %v", got, want)
	}

	warm := tempNote("room-1", 30)
	got = indexMatchKeys(ix, warm)
	if len(got) != 2 {
		t.Errorf("warm Match = %v", got)
	}
}

func TestIndexRemove(t *testing.T) {
	ix := NewIndex()
	f := New(Eq("a", message.Int(1)), Gt("b", message.Int(0)))
	ix.Add("x", f)
	ix.Remove("x")
	if ix.Len() != 0 {
		t.Fatalf("Len = %d after remove", ix.Len())
	}
	n := note(map[string]message.Value{"a": message.Int(1), "b": message.Int(5)})
	if got := indexMatchKeys(ix, n); len(got) != 0 {
		t.Errorf("removed filter still matches: %v", got)
	}
	ix.Remove("x") // idempotent
}

func TestIndexReplaceSameKey(t *testing.T) {
	ix := NewIndex()
	ix.Add("k", New(Eq("a", message.Int(1))))
	ix.Add("k", New(Eq("a", message.Int(2))))
	if got := indexMatchKeys(ix, note(map[string]message.Value{"a": message.Int(1)})); len(got) != 0 {
		t.Errorf("stale filter matched: %v", got)
	}
	if got := indexMatchKeys(ix, note(map[string]message.Value{"a": message.Int(2)})); len(got) != 1 {
		t.Errorf("replacement missing: %v", got)
	}
}

func TestIndexInSetWithDuplicates(t *testing.T) {
	ix := NewIndex()
	ix.Add("k", New(In("a", message.Int(1), message.Int(1), message.Float(1))))
	n := note(map[string]message.Value{"a": message.Int(1)})
	if got := indexMatchKeys(ix, n); len(got) != 1 {
		t.Errorf("duplicate set members broke counting: %v", got)
	}
}

func TestIndexCrossNumericEquality(t *testing.T) {
	ix := NewIndex()
	ix.Add("k", New(Eq("a", message.Float(3))))
	n := note(map[string]message.Value{"a": message.Int(3)})
	if got := indexMatchKeys(ix, n); len(got) != 1 {
		t.Errorf("Int(3) should satisfy Eq(Float(3)): %v", got)
	}
}

func TestIndexEqPlusInSameAttr(t *testing.T) {
	ix := NewIndex()
	ix.Add("k", New(
		Eq("a", message.Int(1)),
		In("a", message.Int(1), message.Int(2)),
	))
	if got := indexMatchKeys(ix, note(map[string]message.Value{"a": message.Int(1)})); len(got) != 1 {
		t.Errorf("conjunction on same attr broken: %v", got)
	}
	if got := indexMatchKeys(ix, note(map[string]message.Value{"a": message.Int(2)})); len(got) != 0 {
		t.Errorf("Eq constraint ignored: %v", got)
	}
}

// wideValues is the operand/attribute-value domain of the property test:
// every kind, Int(3) beside Float(3), NaN, and strings that are prefixes,
// suffixes and substrings of one another.
var wideValues = []message.Value{
	message.Int(0), message.Int(1), message.Int(3),
	message.Float(1), message.Float(1.5), message.Float(3), message.Float(math.NaN()),
	message.String(""), message.String("x"), message.String("xy"), message.String("yx"),
	message.Bool(false), message.Bool(true),
}

func randomWideConstraint(r *rand.Rand, attr string) Constraint {
	v := wideValues[r.Intn(len(wideValues))]
	switch r.Intn(13) {
	case 0:
		return Exists(attr)
	case 1:
		return Eq(attr, v)
	case 2:
		return Ne(attr, v)
	case 3:
		return Lt(attr, v)
	case 4:
		return Le(attr, v)
	case 5:
		return Gt(attr, v)
	case 6:
		return Ge(attr, v)
	case 7:
		return Prefix(attr, []string{"", "x", "xy"}[r.Intn(3)])
	case 8:
		return Suffix(attr, []string{"", "x", "yx"}[r.Intn(3)])
	case 9:
		return Contains(attr, []string{"", "y", "xy"}[r.Intn(3)])
	case 10:
		// 0–3 members from a 13-value domain: empty, duplicate
		// (In(1, 1.0)) and NaN-only sets all occur.
		set := make([]message.Value, r.Intn(4))
		for i := range set {
			set[i] = wideValues[r.Intn(len(wideValues))]
		}
		return In(attr, set...)
	case 11:
		return Constraint{Attr: attr, Op: OpMyloc}
	default:
		return Context(attr, "ctx")
	}
}

// randomWideFilter draws 1–4 constraints (now and then none: All) over
// three attributes, so two constraints on one attribute are common.
func randomWideFilter(r *rand.Rand) Filter {
	if r.Intn(12) == 0 {
		return All()
	}
	cs := make([]Constraint, 1+r.Intn(4))
	for i := range cs {
		cs[i] = randomWideConstraint(r, []string{"a", "b", "c"}[r.Intn(3)])
	}
	return New(cs...)
}

func randomWideNote(r *rand.Rand) message.Notification {
	attrs := map[string]message.Value{}
	for _, a := range []string{"a", "b", "c"} {
		if r.Intn(5) > 0 {
			attrs[a] = wideValues[r.Intn(len(wideValues))]
		}
	}
	return note(attrs)
}

// viewAttrs reads a notification the way a broker reads a relay-form
// publish: encoded, then viewed in place (codec.NoteView). codec imports
// this package, so the external test package installs it (view_test.go).
var viewAttrs func(message.Notification) Attrs

// slotted is an Index driven through the slot methods alone, at slots the
// test chooses: a random free one, so slots are sparse and reused out of
// order, unlike the keyed methods' LIFO reuse.
type slotted struct {
	ix     *Index
	slotOf map[string]int
	keyAt  map[int]string
}

func newSlotted() *slotted {
	return &slotted{ix: NewIndex(), slotOf: map[string]int{}, keyAt: map[int]string{}}
}

func (s *slotted) add(r *rand.Rand, key string, f Filter) {
	slot, ok := s.slotOf[key]
	for !ok {
		slot = r.Intn(2*len(s.slotOf) + 4)
		_, taken := s.keyAt[slot]
		ok = !taken
	}
	s.slotOf[key], s.keyAt[slot] = slot, key
	s.ix.AddSlot(slot, f)
}

func (s *slotted) remove(key string) {
	slot := s.slotOf[key]
	delete(s.slotOf, key)
	delete(s.keyAt, slot)
	s.ix.RemoveSlot(slot)
}

// matchForm is one way of matching a notification against an index,
// reporting keys; slotOf gives each key's slot in the index matched.
type matchForm struct {
	name   string
	match  func(visit func(string))
	slotOf map[string]int
}

// checkIndexAgainst holds Match to the whole contract, on the notification's
// map and on its encoded view, through the keyed methods and through
// MatchSlots on the index built by slot: exactly the keys whose filters
// match (Filter.Matches is the oracle), none visited twice, match-all keys
// first in ascending slot order.
func checkIndexAgainst(t *testing.T, ix *Index, sl *slotted, live map[string]Filter, n message.Notification) {
	t.Helper()
	if viewAttrs == nil {
		t.Fatal("the view input is not installed (view_test.go)")
	}
	bySlot := func(a Attrs) func(visit func(string)) {
		return func(visit func(string)) { sl.ix.MatchSlots(a, func(slot int) { visit(sl.keyAt[slot]) }) }
	}
	var buf [8]Attr
	forms := []matchForm{
		{"map", func(visit func(string)) { ix.Match(n, visit) }, ix.slotOf},
		{"view", func(visit func(string)) { ix.MatchAttrs(viewAttrs(n), visit) }, ix.slotOf},
		{"slots/map", bySlot(AppendAttrs(buf[:0], n)), sl.slotOf},
		{"slots/view", bySlot(viewAttrs(n)), sl.slotOf},
	}
	for _, form := range forms {
		got := map[string]bool{}
		lastAll, pastAll := -1, false
		form.match(func(key string) {
			if got[key] {
				t.Fatalf("%s: key %s visited twice for %s", form.name, key, n)
			}
			got[key] = true
			f, ok := live[key]
			if !ok {
				t.Fatalf("%s: visited %s, which is not indexed", form.name, key)
			}
			if !f.IsAll() {
				pastAll = true
				return
			}
			if slot := form.slotOf[key]; pastAll || slot <= lastAll {
				t.Fatalf("%s: match-all %s (slot %d) visited out of order for %s", form.name, key, slot, n)
			} else {
				lastAll = slot
			}
		})
		for key, f := range live {
			if f.Matches(n) != got[key] {
				t.Fatalf("%s: filter %s = %s on %s: index %v, linear %v", form.name, key, f, n, got[key], !got[key])
			}
		}
	}
	if ix.Len() != len(live) || sl.ix.Len() != len(live) {
		t.Fatalf("Len = %d keyed, %d slotted, want %d", ix.Len(), sl.ix.Len(), len(live))
	}
}

// Property: through any interleaving of Add, Remove, replace-under-the-
// same-key and re-Add after Remove (slot reuse), the index agrees with
// linear evaluation over the live set — for every operator, value kind and
// degenerate operand the filter language admits — whether it is driven by
// key or by caller-chosen slots, and an emptied index retains nothing.
func TestIndexAgreesWithLinearScan(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		ix, sl := NewIndex(), newSlotted()
		live := map[string]Filter{}
		var keys, gone []string // live keys; removed keys awaiting a re-Add
		drop := func(i int) string {
			key := keys[i]
			keys[i] = keys[len(keys)-1]
			keys = keys[:len(keys)-1]
			delete(live, key)
			ix.Remove(key)
			sl.remove(key)
			return key
		}
		for step := 0; step < 150; step++ {
			switch op := r.Intn(10); {
			case op < 5 || len(keys) == 0:
				key := fmt.Sprintf("f%d", step)
				if len(gone) > 0 && r.Intn(3) == 0 {
					key, gone = gone[len(gone)-1], gone[:len(gone)-1]
				}
				live[key] = randomWideFilter(r)
				keys = append(keys, key)
				ix.Add(key, live[key])
				sl.add(r, key, live[key])
			case op < 8:
				gone = append(gone, drop(r.Intn(len(keys))))
			default:
				key := keys[r.Intn(len(keys))]
				live[key] = randomWideFilter(r)
				ix.Add(key, live[key])
				sl.add(r, key, live[key])
			}
			for j := 0; j < 4; j++ {
				checkIndexAgainst(t, ix, sl, live, randomWideNote(r))
			}
		}
		for len(keys) > 0 {
			drop(r.Intn(len(keys)))
			checkIndexAgainst(t, ix, sl, live, randomWideNote(r))
		}
		for _, x := range []*Index{ix, sl.ix} {
			if len(x.eq) != 0 || len(x.scan) != 0 || len(x.all) != 0 || x.Len() != 0 {
				t.Fatalf("trial %d: emptied index retains eq=%v scan=%v all=%v Len=%d", trial, x.eq, x.scan, x.all, x.Len())
			}
		}
	}
}

// TestIndexAccessPathIsASpeedChoiceOnly: which constraint a filter is
// filed under depends on the order filters arrive in, and must show in
// nothing but the bucket sizes.
func TestIndexAccessPathIsASpeedChoiceOnly(t *testing.T) {
	const subs, regions = 1000, 100
	menu := Eq("service", message.String("menu"))
	region := func(i int) message.Value { return message.String(fmt.Sprintf("region-%d", i%regions)) }
	natural := make([]int, subs)
	for i := range natural {
		natural[i] = i
	}
	shuffled := slices.Clone(natural)
	rand.New(rand.NewSource(3)).Shuffle(subs, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	// Every filter of one location first: their location bucket fills up
	// while the shared service bucket is still short.
	grouped := slices.Clone(natural)
	slices.SortStableFunc(grouped, func(a, b int) int { return a%regions - b%regions })

	var want [][]string
	for name, order := range map[string][]int{"natural": natural, "shuffled": shuffled, "grouped": grouped} {
		ix := NewIndex()
		for _, i := range order {
			ix.Add(fmt.Sprintf("f%d", i), New(menu, Eq(AttrLocation, region(i))))
		}
		shared := len(ix.eq["service"][keyOf(menu.Val)])
		longest := 0
		for _, b := range ix.eq[AttrLocation] {
			longest = max(longest, len(b))
		}
		// Smallest-bucket-at-Add: a filter goes to the shared bucket only
		// while that is no longer than its own location bucket, so a note
		// verifies at most about twice as many candidates as it has
		// matches — never the whole table.
		if shared > longest {
			t.Errorf("%s order: shared service bucket holds %d slots, longest location bucket %d", name, shared, longest)
		}
		var got [][]string
		for loc := 0; loc < regions; loc++ {
			keys := indexMatchKeys(ix, note(map[string]message.Value{
				"service": menu.Val, AttrLocation: region(loc),
			}))
			if len(keys) != subs/regions {
				t.Fatalf("%s order: region-%d matched %d filters, want %d", name, loc, len(keys), subs/regions)
			}
			got = append(got, keys)
		}
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("%s order: match sets differ from another insertion order's", name)
		}
	}

	// An In no value can satisfy has no bucket to be filed in: the filter
	// is held (Len, Remove) but reachable by no notification.
	nan := message.Float(math.NaN())
	ix := NewIndex()
	ix.Add("never", New(In("x", nan, nan), Exists("y")))
	if len(ix.eq) != 0 || len(ix.scan) != 0 || ix.Len() != 1 {
		t.Fatalf("NaN-only In filed somewhere: eq=%v scan=%v Len=%d", ix.eq, ix.scan, ix.Len())
	}
	for _, x := range []message.Value{nan, message.Int(1)} {
		if got := indexMatchKeys(ix, note(map[string]message.Value{"x": x, "y": message.Int(1)})); len(got) != 0 {
			t.Errorf("NaN-only In matched x=%s: %v", x, got)
		}
	}
	ix.Remove("never")
	if ix.Len() != 0 {
		t.Fatalf("Len = %d after removing the unfiled filter", ix.Len())
	}
}

// indexBenchShapes are the subscription shapes BenchmarkIndexMatch sweeps.
// Each builds filter i of a table and the notifications to match; groups
// grow with the table (subs/5), so a notification is expected to match
// five filters at every size and ns/op shows the cost per subscription
// held, not per match.
var indexBenchShapes = []indexBenchShape{
	// type = X ∧ reading > t: the sensor shape, and mesh-fanout-paced's.
	// Ten filters share a service, the threshold passes half of them.
	{"eq-gt",
		func(r *rand.Rand, groups int) Filter {
			return New(Eq("service", benchGroup("svc", r.Intn(groups/2))), Gt("value", message.Float(r.Float64()*100)))
		},
		func(r *rand.Rand, groups int) message.Notification {
			return note(map[string]message.Value{
				"service": benchGroup("svc", r.Intn(groups/2)), "value": message.Float(r.Float64() * 100),
				"host": benchGroup("host", r.Intn(64)), "ok": message.Bool(r.Intn(2) == 0),
			})
		}},
	// service = shared ∧ location = selective: the paper's own shape.
	{"shared-eq",
		func(r *rand.Rand, groups int) Filter {
			return New(Eq("service", message.String("temperature")), Eq(AttrLocation, benchGroup("room", r.Intn(groups))))
		},
		func(r *rand.Rand, groups int) message.Notification {
			return note(map[string]message.Value{
				"service": message.String("temperature"), AttrLocation: benchGroup("room", r.Intn(groups)),
				"value": message.Float(r.Float64() * 40),
			})
		}},
	// Nothing hashable: every filter sits in one scan list and half of
	// them match. This one is linear in the table by design (see Index).
	{"range-only",
		func(r *rand.Rand, _ int) Filter { return New(Gt("value", message.Float(r.Float64()*100))) },
		func(r *rand.Rand, _ int) message.Notification {
			return note(map[string]message.Value{"value": message.Float(r.Float64() * 100), "k": message.Int(0)})
		}},
}

func benchGroup(prefix string, i int) message.Value {
	return message.String(fmt.Sprintf("%s-%d", prefix, i))
}

// indexBenchShape builds filter i of a table and the notifications to
// match.
type indexBenchShape struct {
	name   string
	filter func(r *rand.Rand, groups int) Filter
	note   func(r *rand.Rand, groups int) message.Notification
}

// indexMatchProbe returns Index.Match on an index of subs filters of one
// shape, cycling through 256 notes.
func indexMatchProbe(shape indexBenchShape, subs int) func() {
	r := rand.New(rand.NewSource(5))
	ix := NewIndex()
	for i := 0; i < subs; i++ {
		ix.Add(fmt.Sprintf("f%d", i), shape.filter(r, subs/5))
	}
	notes := make([]message.Notification, 256)
	for i := range notes {
		notes[i] = shape.note(r, subs/5)
	}
	i := 0
	return func() {
		ix.Match(notes[i%len(notes)], func(string) {})
		i++
	}
}

var indexBenchSizes = []int{100, 1000, 10000}

// BenchmarkIndexMatch: TestIndexMatchAllocs holds every row to 0 allocs,
// and CI holds eq-gt/subs=10000 within 3x of eq-gt/subs=100.
func BenchmarkIndexMatch(b *testing.B) {
	for _, shape := range indexBenchShapes {
		for _, subs := range indexBenchSizes {
			b.Run(fmt.Sprintf("%s/subs=%d", shape.name, subs), func(b *testing.B) {
				match := indexMatchProbe(shape, subs)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					match()
				}
			})
		}
	}
}

// TestIndexMatchAllocs: matching allocates nothing on any shape and size
// BenchmarkIndexMatch sweeps.
func TestIndexMatchAllocs(t *testing.T) {
	for _, shape := range indexBenchShapes {
		for _, subs := range indexBenchSizes {
			if got := testing.AllocsPerRun(300, indexMatchProbe(shape, subs)); got != 0 {
				t.Errorf("%s/subs=%d: Index.Match %v allocs, want 0", shape.name, subs, got)
			}
		}
	}
}

func BenchmarkLinearMatch1000(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	filters := make([]Filter, 1000)
	for i := range filters {
		filters[i] = New(
			Eq("service", message.String("temperature")),
			Eq("location", message.String(fmt.Sprintf("room-%d", r.Intn(200)))),
		)
	}
	n := note(map[string]message.Value{
		"service":  message.String("temperature"),
		"location": message.String("room-7"),
		"value":    message.Float(20),
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range filters {
			_ = f.Matches(n)
		}
	}
}

// TestIndexMatchAllOrderDeterministic pins the visit-order contract of
// Match: zero-constraint (match-all) filters are visited first, in
// ascending slot order, identically on every call — the all-set is a
// sorted slice, not a map. (Constrained matches follow in unspecified
// order; routing tables re-sort those by insertion position.)
func TestIndexMatchAllOrderDeterministic(t *testing.T) {
	ix := NewIndex()
	// Interleave adds and removes so the slot free list is exercised and
	// slot numbers are not simply insertion order.
	for i := 0; i < 8; i++ {
		ix.Add(fmt.Sprintf("all-%d", i), All())
	}
	ix.Remove("all-2")
	ix.Remove("all-5")
	ix.Add("all-9", All())  // reuses slot of all-5 (LIFO free list)
	ix.Add("all-10", All()) // reuses slot of all-2
	n := message.NewNotification(map[string]message.Value{"x": message.Int(1)})

	var first []string
	ix.Match(n, func(key string) { first = append(first, key) })
	if len(first) != 8 {
		t.Fatalf("visited %d, want 8", len(first))
	}
	for run := 0; run < 10; run++ {
		var again []string
		ix.Match(n, func(key string) { again = append(again, key) })
		if !slices.Equal(first, again) {
			t.Fatalf("visit order changed between calls: %v vs %v", first, again)
		}
	}
	// Ascending slot order: all-9 landed in all-5's slot (5), all-10 in
	// all-2's slot (2), so the expected sequence is fixed.
	want := []string{"all-0", "all-1", "all-10", "all-3", "all-4", "all-9", "all-6", "all-7"}
	if !slices.Equal(first, want) {
		t.Fatalf("visit order = %v, want %v", first, want)
	}
}

// TestIndexNaNConstraintsDoNotLeak is the regression test for the NaN
// bucket leak: Eq(NaN)/In(...NaN...) constraints arrive over the wire
// (the codec decodes arbitrary float bits), and a raw NaN map key would
// be unreachable — inserted by Add, never found by Remove, one permanent
// eq bucket per subscribe/unsubscribe cycle.
func TestIndexNaNConstraintsDoNotLeak(t *testing.T) {
	nan := message.Float(math.NaN())
	ix := NewIndex()
	for i := 0; i < 100; i++ {
		ix.Add("eq", New(Eq("x", nan)))
		ix.Add("in", New(In("y", nan, message.Int(1))))
		ix.Remove("eq")
		ix.Remove("in")
	}
	if ix.Len() != 0 {
		t.Fatalf("index retains %d filters", ix.Len())
	}
	for attr, m := range ix.eq {
		if len(m) != 0 {
			t.Fatalf("leaked %d eq buckets on %q: %v", len(m), attr, m)
		}
	}
	if len(ix.scan) != 0 {
		t.Fatalf("leaked %d scan lists: %v", len(ix.scan), ix.scan)
	}

	// Semantics: Eq(NaN) matches nothing — not even a NaN attribute —
	// and a NaN In-member never satisfies; the index must agree with the
	// linear evaluation on both.
	ix.Add("eq", New(Eq("x", nan)))
	ix.Add("in", New(In("y", nan, message.Int(1))))
	for _, n := range []message.Notification{
		message.NewNotification(map[string]message.Value{"x": nan, "y": nan}),
		message.NewNotification(map[string]message.Value{"x": message.Float(1), "y": message.Int(1)}),
	} {
		got := indexMatchKeys(ix, n)
		var want []string
		for _, key := range []string{"eq", "in"} {
			f := map[string]Filter{
				"eq": New(Eq("x", nan)),
				"in": New(In("y", nan, message.Int(1))),
			}[key]
			if f.Matches(n) {
				want = append(want, key)
			}
		}
		sort.Strings(want)
		if !slices.Equal(got, want) {
			t.Fatalf("n=%s: index matched %v, linear %v", n, got, want)
		}
	}
}
