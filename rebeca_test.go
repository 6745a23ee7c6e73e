package rebeca_test

import (
	"context"
	"testing"
	"time"

	"rebeca"
)

func newSystem(t *testing.T, opts ...rebeca.Option) *rebeca.System {
	t.Helper()
	sys, err := rebeca.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func connect(t *testing.T, p rebeca.Port, b rebeca.NodeID) {
	t.Helper()
	if err := p.Connect(b); err != nil {
		t.Fatalf("connect %s to %s: %v", p.ID(), b, err)
	}
}

func TestSystemBasicPubSub(t *testing.T) {
	g := rebeca.NewGraph()
	g.AddEdge("home", "office")
	sys := newSystem(t, rebeca.WithMovement(g))

	sub := sys.NewClient("sub")
	connect(t, sub, "office")
	s := sub.Subscribe(rebeca.NewFilter(rebeca.Eq("k", rebeca.Int(1))))
	sys.Settle()

	pub := sys.NewClient("pub")
	connect(t, pub, "home")
	if _, err := pub.Publish(map[string]rebeca.Value{"k": rebeca.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Publish(map[string]rebeca.Value{"k": rebeca.Int(2)}); err != nil {
		t.Fatal(err)
	}
	sys.Settle()

	if got := s.Stats().Delivered; got != 1 {
		t.Errorf("stream delivered %d, want 1", got)
	}
	s.Cancel()
	var notes []rebeca.Notification
	for d := range s.Events() {
		notes = append(notes, d.Note)
	}
	if len(notes) != 1 {
		t.Fatalf("drained %d events, want 1", len(notes))
	}
	if v, _ := notes[0].Get("k"); v.IntVal() != 1 {
		t.Errorf("delivered k = %v, want 1", v)
	}
	if sys.MessagesCarried() == 0 {
		t.Error("traffic accounting broken")
	}
}

func TestSystemPublishBatch(t *testing.T) {
	sys := newSystem(t, rebeca.WithMovement(rebeca.Line(3)))
	sub := sys.NewClient("sub")
	connect(t, sub, "B0")
	s := sub.Subscribe(rebeca.NewFilter(rebeca.Exists("n")))
	sys.Settle()

	pub := sys.NewClient("pub")
	connect(t, pub, "B2")
	baseline := sys.MessagesCarried()

	batch := make([]map[string]rebeca.Value, 10)
	for i := range batch {
		batch[i] = map[string]rebeca.Value{"n": rebeca.Int(int64(i))}
	}
	ids, err := pub.PublishBatch(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 10 {
		t.Fatalf("got %d ids, want 10", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i].Seq != ids[i-1].Seq+1 {
			t.Errorf("ids not sequential: %v", ids)
		}
	}
	sys.Settle()

	if got := s.Stats().Delivered; got != 10 {
		t.Errorf("stream delivered %d, want 10", got)
	}
	// One batch frame client->border, then per-note overlay forwarding
	// (2 hops) and one delivery each: 1 + 10*2 + 10 messages. The same
	// traffic published singly costs 10 ingress frames.
	if got := sys.MessagesCarried() - baseline; got != 31 {
		t.Errorf("batch carried %d messages, want 31 (1 frame + 20 hops + 10 delivers)", got)
	}

	// Batch while disconnected fails; empty batch is a no-op.
	if err := pub.Disconnect(); err != nil {
		t.Fatal(err)
	}
	if _, err := pub.PublishBatch(context.Background(), batch); err == nil {
		t.Error("batch while disconnected should fail")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pub.PublishBatch(ctx, batch); err == nil {
		t.Error("batch with cancelled context should fail")
	}
}

// TestSystemRoamingLossless: a mover and a static subscriber share the
// mover's first broker while 400 paced notes arrive and the mover changes
// broker 7 times. Both get every note once and in publisher order, on a
// line and on a ring mesh: the one routing configuration delivers where
// covering, flooding and advertisement-based routing lost notes.
func TestSystemRoamingLossless(t *testing.T) {
	const notes = 400
	cases := []struct {
		name string
		opts []rebeca.Option
		pub  rebeca.NodeID
		path []rebeca.NodeID // the mover's brokers, first to last
	}{
		{"line4", []rebeca.Option{rebeca.WithMovement(rebeca.Line(4))},
			"B3", []rebeca.NodeID{"B0", "B1", "B2", "B3", "B2", "B1", "B0", "B1"}},
		{"ring4-mesh", []rebeca.Option{rebeca.WithMovement(rebeca.Ring(4)), rebeca.WithMeshRouting()},
			"B2", []rebeca.NodeID{"B0", "B1", "B2", "B3", "B0", "B3", "B2", "B1"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys := newSystem(t, tc.opts...)
			mob, static := sys.NewClient("mob"), sys.NewClient("static")
			connect(t, mob, tc.path[0])
			connect(t, static, tc.path[0])
			ms := mob.Subscribe(rebeca.NewFilter(rebeca.Exists("n")), rebeca.WithStreamBuffer(notes))
			ss := static.Subscribe(rebeca.NewFilter(rebeca.Gt("n", rebeca.Int(0))), rebeca.WithStreamBuffer(notes))
			sys.Settle()

			pub := sys.NewClient("pub")
			connect(t, pub, tc.pub)
			for i := 1; i <= notes; i++ {
				i := i
				sys.After(time.Duration(i)*time.Millisecond, func() {
					_, _ = pub.Publish(map[string]rebeca.Value{"n": rebeca.Int(int64(i))})
				})
			}
			for k, b := range tc.path[1:] {
				at := time.Duration(25+50*k) * time.Millisecond
				b := b
				sys.After(at, func() { _ = mob.Disconnect() })
				sys.After(at+10*time.Millisecond, func() { _ = mob.Connect(b) })
			}
			sys.Settle()

			for _, c := range []struct {
				port rebeca.Port
				sub  *rebeca.Subscription
			}{{mob, ms}, {static, ss}} {
				c.sub.Cancel()
				got := 0
				for range c.sub.Events() {
					got++
				}
				if st := c.sub.Stats(); got != notes || st.Delivered != notes || st.Dropped != 0 {
					t.Errorf("%s: stream carried %d of %d, stats %+v", c.port.ID(), got, notes, st)
				}
				if d, f := c.port.Duplicates(), c.port.FIFOViolations(); d != 0 || f != 0 {
					t.Errorf("%s: dups=%d fifo=%d", c.port.ID(), d, f)
				}
			}
		})
	}
}

func TestSystemLocationDependentSubscription(t *testing.T) {
	g := rebeca.Line(3)
	sys := newSystem(t, rebeca.WithMovement(g))

	mob := sys.NewClient("mob")
	connect(t, mob, "B0")
	menu := &streamLog{s: mob.Subscribe(rebeca.AtLocation(rebeca.Eq("service", rebeca.String("menu"))),
		rebeca.WithStreamBuffer(16))}
	sys.Settle()

	pub := sys.NewClient("pub")
	connect(t, pub, "B1")
	n := rebeca.Notification{Attrs: map[string]rebeca.Value{
		"service": rebeca.String("menu"),
		"dish":    rebeca.String("pasta"),
	}}
	n = rebeca.StampLocation(n, "region-B1")
	_, _ = pub.Publish(n.Attrs)
	sys.Settle()

	// Not delivered while at B0, but replayed on arrival at B1.
	if got := len(menu.received(t)); got != 0 {
		t.Fatalf("received %d before arrival", got)
	}
	_ = mob.Disconnect()
	sys.Step(5 * time.Millisecond)
	connect(t, mob, "B1")
	sys.Settle()
	if got := len(menu.received(t)); got != 1 {
		t.Errorf("pre-subscription replay got %d, want 1", got)
	}
}

func TestSystemReactiveOption(t *testing.T) {
	sys := newSystem(t,
		rebeca.WithMovement(rebeca.Line(3)),
		rebeca.WithReactiveBaseline(),
	)
	mob := sys.NewClient("mob")
	connect(t, mob, "B0")
	menu := &streamLog{s: mob.Subscribe(rebeca.AtLocation(rebeca.Eq("service", rebeca.String("menu"))),
		rebeca.WithStreamBuffer(16))}
	sys.Settle()

	pub := sys.NewClient("pub")
	connect(t, pub, "B1")
	n := rebeca.Notification{Attrs: map[string]rebeca.Value{"service": rebeca.String("menu")}}
	n = rebeca.StampLocation(n, "region-B1")
	_, _ = pub.Publish(n.Attrs)
	sys.Settle()
	_ = mob.Disconnect()
	sys.Step(5 * time.Millisecond)
	connect(t, mob, "B1")
	sys.Settle()
	if got := len(menu.received(t)); got != 0 {
		t.Errorf("reactive mode replayed %d, want 0", got)
	}
}

func TestSystemBufferCapOption(t *testing.T) {
	sys := newSystem(t,
		rebeca.WithMovement(rebeca.Line(3)),
		rebeca.WithBufferCap(2),
	)
	mob := sys.NewClient("mob")
	connect(t, mob, "B0")
	menu := &streamLog{s: mob.Subscribe(rebeca.AtLocation(rebeca.Eq("service", rebeca.String("menu"))),
		rebeca.WithStreamBuffer(16))}
	sys.Settle()
	pub := sys.NewClient("pub")
	connect(t, pub, "B1")
	for i := 0; i < 5; i++ {
		n := rebeca.Notification{Attrs: map[string]rebeca.Value{
			"service": rebeca.String("menu"),
			"i":       rebeca.Int(int64(i)),
		}}
		n = rebeca.StampLocation(n, "region-B1")
		_, _ = pub.Publish(n.Attrs)
	}
	sys.Settle()
	_ = mob.Disconnect()
	sys.Step(2 * time.Millisecond)
	connect(t, mob, "B1")
	sys.Settle()
	if got := len(menu.received(t)); got != 2 {
		t.Errorf("capped buffer replayed %d, want 2", got)
	}
}

func TestSystemClockAndScheduling(t *testing.T) {
	sys := newSystem(t, rebeca.WithMovement(rebeca.Line(2)))
	t0 := sys.Now()
	fired := false
	sys.After(time.Second, func() { fired = true })
	sys.Step(999 * time.Millisecond)
	if fired {
		t.Error("event fired early")
	}
	sys.Step(time.Millisecond)
	if !fired {
		t.Error("event did not fire")
	}
	if got := sys.Now().Sub(t0); got != time.Second {
		t.Errorf("clock advanced %s, want 1s", got)
	}
}

func TestSystemBrokersList(t *testing.T) {
	sys := newSystem(t, rebeca.WithMovement(rebeca.Grid(2, 2)))
	if got := len(sys.Brokers()); got != 4 {
		t.Errorf("brokers = %d, want 4", got)
	}
}

func TestNewRequiresMovement(t *testing.T) {
	if _, err := rebeca.New(); err == nil {
		t.Error("New without movement graph should fail")
	}
}

func TestPortErrors(t *testing.T) {
	sys := newSystem(t, rebeca.WithMovement(rebeca.Line(2)))
	c := sys.NewClient("c")
	if err := c.Connect("nowhere"); err == nil {
		t.Error("connect to unknown broker should fail")
	}
	if _, err := c.Publish(map[string]rebeca.Value{"k": rebeca.Int(1)}); err == nil {
		t.Error("publish while disconnected should fail")
	}
	connect(t, c, "B0")
	if got := c.Border(); got != "B0" {
		t.Errorf("border = %s, want B0", got)
	}
}

func TestSubscriptionHandleLifecycle(t *testing.T) {
	sys := newSystem(t, rebeca.WithMovement(rebeca.Line(2)))
	c := sys.NewClient("c")
	connect(t, c, "B0")
	s := c.Subscribe(rebeca.NewFilter(rebeca.Exists("k")))
	if s.ID() == "" {
		t.Error("subscription should carry its end-to-end ID")
	}
	if !s.Filter().Matches(rebeca.Notification{Attrs: map[string]rebeca.Value{"k": rebeca.Int(1)}}) {
		t.Error("handle should expose the subscribed filter")
	}
	sys.Settle()

	pub := sys.NewClient("pub")
	connect(t, pub, "B1")
	_, _ = pub.Publish(map[string]rebeca.Value{"k": rebeca.Int(1)})
	sys.Settle()

	if s.Cancelled() {
		t.Error("not cancelled yet")
	}
	s.Cancel()
	s.Cancel() // idempotent
	if !s.Cancelled() {
		t.Error("cancelled")
	}
	// The stream drains its buffered delivery, then terminates.
	n := 0
	for range s.Events() {
		n++
	}
	if n != 1 {
		t.Errorf("drained %d, want 1", n)
	}

	// Post-cancel traffic no longer reaches the stream.
	_, _ = pub.Publish(map[string]rebeca.Value{"k": rebeca.Int(2)})
	sys.Settle()
	if st := s.Stats(); st.Delivered != 1 || st.Buffered != 0 {
		t.Errorf("post-cancel stats = %+v, want 1 delivered, 0 buffered", st)
	}
}

func TestFilterFacade(t *testing.T) {
	f := rebeca.NewFilter(
		rebeca.Ge("v", rebeca.Float(1)),
		rebeca.Le("v", rebeca.Float(5)),
		rebeca.Prefix("name", "ro"),
		rebeca.In("kind", rebeca.String("a"), rebeca.String("b")),
	)
	n := rebeca.Notification{Attrs: map[string]rebeca.Value{
		"v":    rebeca.Float(3),
		"name": rebeca.String("room"),
		"kind": rebeca.String("a"),
	}}
	if !f.Matches(n) {
		t.Error("facade filter should match")
	}
	if !rebeca.AllFilter().Matches(n) {
		t.Error("AllFilter should match anything")
	}
	if !rebeca.AtLocation().LocationDependent() {
		t.Error("AtLocation should be location dependent")
	}
	// Remaining constraint constructors exist and behave.
	for _, c := range []rebeca.Constraint{
		rebeca.Eq("x", rebeca.Int(1)), rebeca.Ne("x", rebeca.Int(1)),
		rebeca.Lt("x", rebeca.Int(1)), rebeca.Gt("x", rebeca.Int(1)),
		rebeca.Exists("x"), rebeca.Suffix("s", "x"), rebeca.Contains("s", "x"),
	} {
		_ = rebeca.NewFilter(c)
	}
	_ = rebeca.Bool(true)
}
