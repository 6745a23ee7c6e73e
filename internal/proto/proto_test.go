package proto

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"rebeca/internal/filter"
	"rebeca/internal/message"
)

// The fmt rendering of filter keys that Filter.AppendKey replaced, kept
// here as the oracle. It depends on nothing but the values' accessors, so
// a change to the append path cannot change the oracle with it.

var oracleOpNames = map[filter.Op]string{
	filter.OpExists:   "exists",
	filter.OpEq:       "=",
	filter.OpNe:       "!=",
	filter.OpLt:       "<",
	filter.OpLe:       "<=",
	filter.OpGt:       ">",
	filter.OpGe:       ">=",
	filter.OpPrefix:   "prefix",
	filter.OpSuffix:   "suffix",
	filter.OpContains: "contains",
	filter.OpIn:       "in",
	filter.OpMyloc:    "in-myloc",
	filter.OpContext:  "in-context",
}

func oracleOp(o filter.Op) string {
	if s, ok := oracleOpNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

func oracleValue(v message.Value) string {
	switch v.Kind() {
	case message.KindString:
		return strconv.Quote(v.Str())
	case message.KindInt:
		return strconv.FormatInt(v.IntVal(), 10)
	case message.KindFloat:
		return strconv.FormatFloat(v.FloatVal(), 'g', -1, 64)
	case message.KindBool:
		return strconv.FormatBool(v.BoolVal())
	default:
		return "<invalid>"
	}
}

func oracleConstraint(c filter.Constraint) string {
	switch c.Op {
	case filter.OpExists:
		return fmt.Sprintf("exists(%s)", c.Attr)
	case filter.OpMyloc:
		return fmt.Sprintf("%s in myloc", c.Attr)
	case filter.OpContext:
		return fmt.Sprintf("%s in ctx:%s", c.Attr, c.Val.Str())
	case filter.OpIn:
		parts := make([]string, len(c.Set))
		for i, v := range c.Set {
			parts[i] = oracleValue(v)
		}
		return fmt.Sprintf("%s in {%s}", c.Attr, strings.Join(parts, ","))
	default:
		return fmt.Sprintf("%s %s %s", c.Attr, oracleOp(c.Op), oracleValue(c.Val))
	}
}

func oracleKey(f filter.Filter) string {
	cs := f.Constraints()
	if len(cs) == 0 {
		return "*"
	}
	parts := make([]string, len(cs))
	for i, c := range cs {
		parts[i] = oracleConstraint(c)
	}
	return strings.Join(parts, " & ")
}

// oracleWireSize is WireSize with every filter key measured by the oracle.
func oracleWireSize(m Message) int {
	size := 16 + len(m.From) + len(m.Origin) + len(m.Dest) + len(m.Client)
	if m.Note != nil {
		size += m.Note.WireSize()
	}
	for _, n := range m.Notes {
		size += n.WireSize()
	}
	subs := append([]Subscription(nil), m.Subs...)
	if m.Sub != nil {
		subs = append(subs, *m.Sub)
	}
	for _, s := range subs {
		size += len(s.ID) + len(oracleKey(s.Filter))
	}
	size += len(m.Watermarks) * 16
	for _, id := range m.SubIDs {
		size += len(id)
	}
	return size
}

var (
	edgeStrings = []string{
		"", "menu", `say "hi"`, `back\slash`, `\"`, "tab\tnew\nline",
		"héllo wörld", "日本語", "emoji 🛰", "\xff\xfe", "bad \xc3\x28 utf8", "\x00nul",
	}
	edgeFloats = []float64{
		0, math.Copysign(0, -1), 1, -1.5, 0.1, 1e21, 1e20, 1e-7, 5e-324,
		math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
	}
	edgeInts = []int64{0, 1, -1, 42, -42, math.MaxInt64, math.MinInt64}
)

func randValue(rng *rand.Rand) message.Value {
	switch rng.Intn(9) {
	case 0, 1:
		return message.String(edgeStrings[rng.Intn(len(edgeStrings))])
	case 2:
		b := make([]byte, rng.Intn(8))
		rng.Read(b) // arbitrary bytes: mostly invalid UTF-8
		return message.String(string(b))
	case 3:
		return message.Int(edgeInts[rng.Intn(len(edgeInts))])
	case 4:
		return message.Int(rng.Int63() - rng.Int63())
	case 5:
		return message.Float(edgeFloats[rng.Intn(len(edgeFloats))])
	case 6:
		return message.Float(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30)))
	case 7:
		return message.Bool(rng.Intn(2) == 0)
	default:
		return message.Value{} // the invalid value
	}
}

func randConstraint(rng *rand.Rand) filter.Constraint {
	attrs := []string{"service", "location", "temp", "näme", `q"uote`, ""}
	c := filter.Constraint{Attr: attrs[rng.Intn(len(attrs))]}
	// Every defined operator, plus the invalid zero and undefined ones.
	ops := []filter.Op{filter.OpInvalid, filter.OpContext + 1, -3, 99}
	for o := filter.OpExists; o <= filter.OpContext; o++ {
		ops = append(ops, o, o) // weight the defined ones
	}
	c.Op = ops[rng.Intn(len(ops))]
	switch c.Op {
	case filter.OpIn:
		switch n := rng.Intn(5); n {
		case 0:
			c.Set = []message.Value{} // empty set
		case 1:
			v := randValue(rng)
			c.Set = []message.Value{v, v, v} // duplicates
		default:
			for i := 0; i < n; i++ {
				c.Set = append(c.Set, randValue(rng))
			}
		}
	case filter.OpContext:
		c.Val = message.String(edgeStrings[rng.Intn(len(edgeStrings))])
	default:
		c.Val = randValue(rng)
	}
	return c
}

func TestWireSizeMatchesRendering(t *testing.T) {
	rng := rand.New(rand.NewSource(2003))
	// The match-all filter and each operator alone, then random filters.
	filters := []filter.Filter{filter.All(), filter.New()}
	for o := filter.Op(-1); o <= filter.OpContext+1; o++ {
		if got, want := o.String(), oracleOp(o); got != want {
			t.Fatalf("Op(%d).String() = %q, want %q", int(o), got, want)
		}
		filters = append(filters, filter.New(filter.Constraint{Attr: "a", Op: o, Val: message.Int(-7)}))
	}
	filters = append(filters,
		filter.AtLocation(filter.Eq("service", message.String("menu"))),
		filter.New(filter.Context("room", "myroom"), filter.Exists("x")),
		filter.New(filter.In("x")),
		filter.New(filter.In("x", message.Int(1), message.Int(1), message.Float(1))),
	)
	for i := 0; i < 2000; i++ {
		cs := make([]filter.Constraint, rng.Intn(5))
		for j := range cs {
			cs[j] = randConstraint(rng)
		}
		filters = append(filters, filter.New(cs...))
	}

	for _, f := range filters {
		want := oracleKey(f)
		if got := string(f.AppendKey(nil)); got != want {
			t.Fatalf("AppendKey:\n got %q\nwant %q", got, want)
		}
		if got := string(f.AppendKey([]byte("prefix|"))); got != "prefix|"+want {
			t.Fatalf("AppendKey onto a prefix:\n got %q\nwant %q", got, "prefix|"+want)
		}
		if got := f.Key(); got != want {
			t.Fatalf("Key:\n got %q\nwant %q", got, want)
		}
		if got := f.String(); got != want {
			t.Fatalf("String:\n got %q\nwant %q", got, want)
		}
		for _, c := range f.Constraints() {
			if got, want := c.String(), oracleConstraint(c); got != want {
				t.Fatalf("Constraint.String:\n got %q\nwant %q", got, want)
			}
		}
	}

	// WireSize over messages carrying those filters in every slot.
	for i := 0; i < 500; i++ {
		pick := func() Subscription {
			return Subscription{ID: message.SubID(fmt.Sprintf("s%d", rng.Intn(1000))), Filter: filters[rng.Intn(len(filters))]}
		}
		m := Message{Kind: KSyncInstall, From: "b1", Origin: "b2", Client: "c"}
		if rng.Intn(2) == 0 {
			s := pick()
			m.Sub = &s
		}
		for j := rng.Intn(4); j > 0; j-- {
			m.Subs = append(m.Subs, pick())
		}
		if got, want := m.WireSize(), oracleWireSize(m); got != want {
			t.Fatalf("WireSize = %d, oracle %d for %+v", got, want, m)
		}
	}
}

type wireSizeCase struct {
	name string
	m    Message
}

// wireSizeCases are the three message shapes whose byte accounting runs on
// every simulated subscription, connect and link handshake.
func wireSizeCases() []wireSizeCase {
	menu := filter.AtLocation(filter.Eq("service", message.String("menu")))
	stock := filter.New(filter.Eq("service", message.String("stock")), filter.Gt("quote", message.Int(100)))
	resolved := menu.ResolveMyloc([]string{"region-b00", "region-b01"})
	var sync []Subscription
	for i := 0; i < 50; i++ {
		sync = append(sync, Subscription{ID: message.SubID(fmt.Sprintf("mob%d#%d@b%02d", i, i, i%16)), Filter: resolved})
	}
	return []wireSizeCase{
		{"subscribe", Message{Kind: KSubscribe, From: "mob1", Sub: &Subscription{ID: "mob1#1", Filter: stock}}},
		{"connect", Message{Kind: KConnect, From: "mob1", Client: "mob1", Origin: "b00",
			Subs: []Subscription{{ID: "mob1#1", Filter: menu}, {ID: "mob1#2", Filter: stock}}}},
		{"sync-install", Message{Kind: KSyncInstall, From: "b00", Origin: "b00", Subs: sync}},
	}
}

func TestWireSizeAllocs(t *testing.T) {
	for _, c := range wireSizeCases() {
		var sink int
		if allocs := testing.AllocsPerRun(100, func() { sink += c.m.WireSize() }); allocs != 0 {
			t.Errorf("%s: WireSize allocates %.1f times per call, want 0", c.name, allocs)
		}
		if sink == 0 {
			t.Errorf("%s: WireSize is 0", c.name)
		}
	}
}

// BenchmarkWireSize: TestWireSizeAllocs holds every case to 0 allocs.
func BenchmarkWireSize(b *testing.B) {
	for _, c := range wireSizeCases() {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += c.m.WireSize()
			}
			if sink == 0 {
				b.Fatal("WireSize is 0")
			}
		})
	}
}
