package rebeca_test

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"rebeca"
)

// streamLog accumulates what one subscription's stream has carried: every
// delivery in arrival order, and whether the stream is closed.
type streamLog struct {
	s      *rebeca.Subscription
	ds     []rebeca.Delivery
	closed bool
}

// drain takes whatever the stream holds now, without waiting, and returns
// every delivery the stream has carried so far.
func (l *streamLog) drain() []rebeca.Delivery {
	for !l.closed {
		select {
		case d, ok := <-l.s.Events():
			if !ok {
				l.closed = true
				continue
			}
			l.ds = append(l.ds, d)
			continue
		default:
		}
		break
	}
	return l.ds
}

// received is drain for an assertion: a stream whose overflow policy
// discarded anything fails the test, so a bounded stream cannot pass a
// count by losing deliveries.
func (l *streamLog) received(t testing.TB) []rebeca.Delivery {
	t.Helper()
	ds := l.drain()
	if st := l.s.Stats(); st.Dropped != 0 {
		t.Errorf("stream %s dropped %d deliveries (stats %+v)", l.s.ID(), st.Dropped, st)
	}
	return ds
}

// String renders the "n" attribute of every delivery, sorted, and whether
// the stream is closed.
func (l *streamLog) String() string {
	ns := make([]int64, 0, len(l.ds))
	for _, d := range l.drain() {
		ns = append(ns, d.Note.Attrs["n"].IntVal())
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	if l.closed {
		return fmt.Sprint(ns, " closed")
	}
	return fmt.Sprint(ns)
}

// portScript drives one client session script through a deployment's
// ports — subscribe and cancel while connected and disconnected, durable
// re-subscription, a roam with traffic while dark, publisher reconnect and
// restart — checking each step against what the script expects and
// returning the observations in order.
func portScript(t *testing.T, host string, d rebeca.Deployment, durable bool) []string {
	var log []string
	check := func(step string, got func() string, want string) {
		t.Helper()
		deadline := time.Now().Add(3 * time.Second)
		d.Settle()
		for got() != want && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
			d.Settle()
		}
		v := got()
		if v != want {
			t.Errorf("%s: %s = %s, want %s", host, step, v, want)
		}
		log = append(log, step+": "+v)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", host, err)
		}
	}
	fa := rebeca.NewFilter(rebeca.Eq("kind", rebeca.String("a")))
	mob, pub := d.NewClient("mob"), d.NewClient("pub")
	var ids []string
	publish := func(p rebeca.Port, lo, hi int) {
		t.Helper()
		for n := lo; n <= hi; n++ {
			id, err := p.Publish(map[string]rebeca.Value{"kind": rebeca.String("a"), "n": rebeca.Int(int64(n))})
			must(err)
			ids = append(ids, id.String())
		}
	}
	published := func() string { return fmt.Sprint(ids) }
	subIDs := func(subs ...*rebeca.Subscription) func() string {
		return func() string {
			out := make([]rebeca.SubID, len(subs))
			for i, s := range subs {
				out[i] = s.ID()
			}
			return fmt.Sprint(out)
		}
	}

	// Subscribe, and subscribe-then-cancel, before the first connect: the
	// profile travels with the connect.
	a := &streamLog{s: mob.Subscribe(fa)}
	x := &streamLog{s: mob.Subscribe(fa)}
	x.s.Cancel()
	dur := &streamLog{s: mob.Subscribe(fa, rebeca.Durable("inbox"))}
	check("ids minted offline", subIDs(a.s, x.s, dur.s), "[mob/s1 mob/s2 mob/d:inbox]")
	must(mob.Connect("B0"))
	must(pub.Connect("B2"))
	d.Settle()
	publish(pub, 1, 3)
	check("first notes", func() string { return a.String() + " " + x.String() + " " + dur.String() }, "[1 2 3] [] closed [1 2 3]")

	// Subscribe and cancel while connected.
	b := &streamLog{s: mob.Subscribe(fa)}
	check("id minted online", subIDs(b.s), "[mob/s3]")
	publish(pub, 4, 4)
	check("after subscribe online", b.String, "[4]")
	a.s.Cancel()
	publish(pub, 5, 5)
	check("after cancel online", func() string { return a.String() + " " + b.String() }, "[1 2 3 4] closed [4 5]")

	// Roam B0 → B1 with traffic while dark: the old border buffers it, the
	// new border relocates the session and the profile with it.
	must(mob.Disconnect())
	check("border while dark", func() string { return string(mob.Border()) }, "")
	publish(pub, 6, 7)
	check("nothing while dark", b.String, "[4 5]")
	must(mob.Connect("B1"))
	publish(pub, 8, 8)
	check("after roam", func() string { return string(mob.Border()) + " " + b.String() + " " + dur.String() },
		"B1 [4 5 6 7 8] [1 2 3 4 5 6 7 8]")

	// A recreated durable subscription takes the same ID and the stream.
	dur2 := &streamLog{s: mob.Subscribe(fa, rebeca.Durable("inbox"))}
	check("durable id again", subIDs(dur2.s), "[mob/d:inbox]")
	publish(pub, 9, 9)
	check("after re-subscribe", func() string { return dur.String() + " " + dur2.String() }, "[1 2 3 4 5 6 7 8] closed [9]")

	// Publish sequences continue across a reconnect…
	must(pub.Disconnect())
	must(pub.Connect("B2"))
	publish(pub, 10, 10)
	check("after reconnect", dur2.String, "[9 10]")
	// …and across a restart: a new port under the same ID continues from
	// the persisted identity on a durable deployment, and starts again at 1
	// (so its first note is a duplicate of pub#1) without one. The old
	// incarnation is gone first: on two connections at once, the new one's
	// notes could overtake the old one's.
	must(pub.Disconnect())
	d.Settle()
	pub2 := d.NewClient("pub")
	must(pub2.Connect("B2"))
	publish(pub2, 11, 11)
	wantIDs, want11, wantDups := "[pub#1 pub#2 pub#3 pub#4 pub#5 pub#6 pub#7 pub#8 pub#9 pub#10 pub#1]", "[9 10]", "1"
	if durable {
		wantIDs, want11, wantDups = "[pub#1 pub#2 pub#3 pub#4 pub#5 pub#6 pub#7 pub#8 pub#9 pub#10 pub#257]", "[9 10 11]", "0"
	}
	check("publish ids", published, wantIDs)
	check("after restart", dur2.String, want11)
	check("duplicates", func() string { return fmt.Sprint(mob.Duplicates()) }, wantDups)
	check("fifo violations", func() string { return fmt.Sprint(mob.FIFOViolations()) }, "0")

	// The caller's attribute maps are its own again once Publish and
	// PublishBatch return: changing them then changes nothing published.
	e := &streamLog{s: mob.Subscribe(fa)}
	scribe := d.NewClient("scribe")
	must(scribe.Connect("B2"))
	d.Settle()
	one := map[string]rebeca.Value{"kind": rebeca.String("a"), "n": rebeca.Int(12)}
	_, err := scribe.Publish(one)
	must(err)
	batch := []map[string]rebeca.Value{{"kind": rebeca.String("a"), "n": rebeca.Int(13)}}
	_, err = scribe.PublishBatch(context.Background(), batch)
	must(err)
	for _, attrs := range []map[string]rebeca.Value{one, batch[0]} {
		attrs["kind"], attrs["n"] = rebeca.String("b"), rebeca.Int(-1)
	}
	check("after the publisher reuses its maps", e.String, "[12 13]")
	return log
}

// TestPortsConform runs one client session script over a System port and a
// Live port, volatile and durable, and requires every step to observe what
// the script expects — and the two ports to observe the same thing.
func TestPortsConform(t *testing.T) {
	hosts := []struct {
		name  string
		build func(opts ...rebeca.Option) (rebeca.Deployment, error)
	}{
		{"sim", func(opts ...rebeca.Option) (rebeca.Deployment, error) { return rebeca.New(opts...) }},
		{"live", func(opts ...rebeca.Option) (rebeca.Deployment, error) { return rebeca.NewLive(opts...) }},
	}
	for _, durable := range []bool{false, true} {
		durable := durable
		t.Run(map[bool]string{false: "volatile", true: "durable"}[durable], func(t *testing.T) {
			logs := make([][]string, len(hosts))
			for i, h := range hosts {
				opts := []rebeca.Option{rebeca.WithMovement(rebeca.Line(3))}
				if durable {
					opts = append(opts, rebeca.WithDurable(rebeca.NewMemoryStore()))
				}
				d, err := h.build(opts...)
				if err != nil {
					t.Fatal(err)
				}
				logs[i] = portScript(t, h.name, d, durable)
				if err := d.Close(); err != nil {
					t.Fatal(err)
				}
			}
			for i := range logs[0] {
				if i >= len(logs[1]) || logs[0][i] != logs[1][i] {
					t.Fatalf("sim and live part at step %d:\nsim:  %v\nlive: %v", i, logs[0][i:], logs[1][min(i, len(logs[1])):])
				}
			}
		})
	}
}
