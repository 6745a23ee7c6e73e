package rebeca_test

import (
	"testing"
	"time"

	"rebeca"
)

// TestPublisherIdentitySurvivesRestartSim: on a durable deployment, a
// publisher recreated under the same ID (a restarted publisher process)
// must keep its dedup identity — sequences continue monotonically from the
// persisted "pub/<client>" snapshot, so subscribers treat the new
// incarnation's notifications as fresh instead of swallowing them as
// replays of sequences 1..n.
func TestPublisherIdentitySurvivesRestartSim(t *testing.T) {
	g := rebeca.NewGraph().AddEdge("A", "B")
	st := rebeca.NewMemoryStore()
	sys, err := rebeca.New(rebeca.WithMovement(g), rebeca.WithDurable(st))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	sub := sys.NewClient("sub")
	if err := sub.Connect("B"); err != nil {
		t.Fatal(err)
	}
	ks := &streamLog{s: sub.Subscribe(rebeca.NewFilter(rebeca.Eq("k", rebeca.Int(1))), rebeca.WithStreamBuffer(64))}
	sys.Settle()

	publish := func(p rebeca.Port, n int) {
		for i := 0; i < n; i++ {
			if _, err := p.Publish(map[string]rebeca.Value{"k": rebeca.Int(1)}); err != nil {
				t.Fatal(err)
			}
		}
		sys.Settle()
	}

	pub := sys.NewClient("pub")
	if err := pub.Connect("A"); err != nil {
		t.Fatal(err)
	}
	publish(pub, 5)
	if err := pub.Disconnect(); err != nil {
		t.Fatal(err)
	}
	sys.Settle()

	// "Restart": a fresh port under the same ID on the same store.
	pub2 := sys.NewClient("pub")
	if err := pub2.Connect("A"); err != nil {
		t.Fatal(err)
	}
	publish(pub2, 5)

	if got := len(ks.received(t)); got != 10 {
		t.Errorf("subscriber deliveries = %d, want 10 (restart must not alias old sequences)", got)
	}
	if got := sub.Duplicates(); got != 0 {
		t.Errorf("suppressed duplicates = %d, want 0", got)
	}
	if got := sub.FIFOViolations(); got != 0 {
		t.Errorf("FIFO violations = %d, want 0 (sequences must stay monotonic across restarts)", got)
	}
	// The restarted incarnation resumed above the persisted reservation.
	got := ks.received(t)
	last := got[len(got)-1]
	if last.Note.ID.Seq <= 5 {
		t.Errorf("post-restart sequence %d not above the first incarnation's", last.Note.ID.Seq)
	}
}

// TestPublisherIdentityRestartWithoutStoreAliases documents the failure
// mode the persisted identity exists to prevent: without a store, a
// restarted publisher reuses sequences 1..n and every delivery is
// suppressed as a duplicate.
func TestPublisherIdentityRestartWithoutStoreAliases(t *testing.T) {
	g := rebeca.NewGraph().AddEdge("A", "B")
	sys, err := rebeca.New(rebeca.WithMovement(g))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	sub := sys.NewClient("sub")
	if err := sub.Connect("B"); err != nil {
		t.Fatal(err)
	}
	ks := &streamLog{s: sub.Subscribe(rebeca.NewFilter(rebeca.Eq("k", rebeca.Int(1))), rebeca.WithStreamBuffer(64))}
	sys.Settle()

	for _, name := range []string{"first", "second"} {
		pub := sys.NewClient("pub")
		if err := pub.Connect("A"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := pub.Publish(map[string]rebeca.Value{"k": rebeca.Int(1)}); err != nil {
				t.Fatal(err)
			}
		}
		sys.Settle()
		if err := pub.Disconnect(); err != nil {
			t.Fatal(err)
		}
		sys.Settle()
		_ = name
	}
	if got := len(ks.received(t)); got != 3 {
		t.Errorf("volatile restart delivered %d, want 3 (aliased sequences dedup away)", got)
	}
	if got := sub.Duplicates(); got != 3 {
		t.Errorf("suppressed duplicates = %d, want 3", got)
	}
}

// TestPublisherIdentitySurvivesRestartLive runs the durable half over real
// TCP: same WAL-less memory store, fresh livePort under the same ID.
func TestPublisherIdentitySurvivesRestartLive(t *testing.T) {
	g := rebeca.NewGraph().AddEdge("A", "B")
	st := rebeca.NewMemoryStore()
	d, err := rebeca.NewLive(rebeca.WithMovement(g), rebeca.WithDurable(st),
		rebeca.WithSettleWindow(50*time.Millisecond, 5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	sub := d.NewClient("sub")
	if err := sub.Connect("B"); err != nil {
		t.Fatal(err)
	}
	ks := &streamLog{s: sub.Subscribe(rebeca.NewFilter(rebeca.Eq("k", rebeca.Int(1))), rebeca.WithStreamBuffer(64))}
	d.Settle()

	for round := 0; round < 2; round++ {
		pub := d.NewClient("pub")
		if err := pub.Connect("A"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if _, err := pub.Publish(map[string]rebeca.Value{"k": rebeca.Int(1)}); err != nil {
				t.Fatal(err)
			}
		}
		d.Settle()
		if err := pub.Disconnect(); err != nil {
			t.Fatal(err)
		}
	}
	d.Settle()
	if got := len(ks.received(t)); got != 8 {
		t.Errorf("subscriber deliveries = %d, want 8", got)
	}
	if got := sub.Duplicates(); got != 0 {
		t.Errorf("suppressed duplicates = %d, want 0", got)
	}
}
