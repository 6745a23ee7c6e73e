package client

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rebeca/internal/filter"
	"rebeca/internal/message"
	"rebeca/internal/proto"
	"rebeca/internal/store"
)

type sent struct {
	to message.NodeID
	m  proto.Message
}

// logTransport records every message with the border it went to. An
// address is the border's ID, as on the simulator's network.
type logTransport struct {
	border message.NodeID
	log    []sent
}

func (t *logTransport) Attach(addr string, hello proto.Message) (message.NodeID, error) {
	t.border = message.NodeID(addr)
	return t.border, t.Send(hello)
}

func (t *logTransport) Send(m proto.Message) error {
	if m.Note != nil {
		n := *m.Note
		m.Note = &n
	}
	t.log = append(t.log, sent{to: t.border, m: m})
	return nil
}

func (t *logTransport) Disconnect() error {
	return t.Send(proto.Message{Kind: proto.KDisconnect})
}

func newTestClient(id message.NodeID) (*Client, *[]sent) {
	t := &logTransport{}
	c := New(id, t, func() time.Time { return time.Date(2003, 6, 16, 12, 0, 0, 0, time.UTC) })
	return c, &t.log
}

func TestClientConnectCarriesProfileAndPrev(t *testing.T) {
	c, log := newTestClient("alice")
	c.Subscribe(filter.New(filter.Eq("s", message.String("stock"))))
	c.ConnectTo("B1")
	c.Disconnect()
	c.ConnectTo("B2")

	var connects []proto.Message
	for _, s := range *log {
		if s.m.Kind == proto.KConnect {
			connects = append(connects, s.m)
		}
	}
	if len(connects) != 2 {
		t.Fatalf("connects = %d", len(connects))
	}
	if connects[0].Origin != "" {
		t.Errorf("first connect prev = %q, want empty", connects[0].Origin)
	}
	if connects[1].Origin != "B1" {
		t.Errorf("second connect prev = %q, want B1", connects[1].Origin)
	}
	if len(connects[1].Subs) != 1 {
		t.Errorf("profile not announced: %v", connects[1].Subs)
	}
}

func TestClientConnectImpliesDisconnect(t *testing.T) {
	c, log := newTestClient("alice")
	c.ConnectTo("B1")
	c.ConnectTo("B2") // no explicit disconnect
	kinds := []proto.Kind{}
	for _, s := range *log {
		kinds = append(kinds, s.m.Kind)
	}
	want := []proto.Kind{proto.KConnect, proto.KDisconnect, proto.KConnect}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", kinds, want)
		}
	}
	if (*log)[1].to != "B1" {
		t.Error("implicit disconnect should target the old border")
	}
}

func TestClientSubscribeWhileDisconnectedDefers(t *testing.T) {
	c, log := newTestClient("alice")
	c.Subscribe(filter.All())
	if len(*log) != 0 {
		t.Error("offline subscribe must not send")
	}
	c.ConnectTo("B1")
	// Profile travels with the connect.
	if (*log)[0].m.Kind != proto.KConnect || len((*log)[0].m.Subs) != 1 {
		t.Error("profile should be announced on connect")
	}
}

func TestClientSubscribeOnlineSends(t *testing.T) {
	c, log := newTestClient("alice")
	c.ConnectTo("B1")
	id := c.Subscribe(filter.All())
	last := (*log)[len(*log)-1]
	if last.m.Kind != proto.KSubscribe || last.m.Sub.ID != id {
		t.Errorf("subscribe message wrong: %+v", last.m)
	}
	if last.to != "B1" {
		t.Error("subscribe should target border")
	}
}

func TestClientUnsubscribe(t *testing.T) {
	c, log := newTestClient("alice")
	c.ConnectTo("B1")
	id := c.Subscribe(filter.All())
	c.Unsubscribe(id)
	last := (*log)[len(*log)-1]
	if last.m.Kind != proto.KUnsubscribe || last.m.Sub.ID != id {
		t.Errorf("unsubscribe message wrong: %+v", last.m)
	}
	if len(c.Subscriptions()) != 0 {
		t.Error("profile should shrink")
	}
	c.Unsubscribe("nope") // unknown: no panic, no send
}

func TestClientSubscribeAtAddsMyloc(t *testing.T) {
	c, _ := newTestClient("alice")
	c.SubscribeAt(filter.Eq("service", message.String("temperature")))
	subs := c.Subscriptions()
	if len(subs) != 1 || !subs[0].Filter.LocationDependent() {
		t.Error("SubscribeAt should create a location-dependent filter")
	}
}

func TestClientPublishStampsIDs(t *testing.T) {
	c, log := newTestClient("alice")
	if _, err := c.Publish(map[string]message.Value{"k": message.Int(1)}); err != ErrNotConnected {
		t.Errorf("offline publish: %v, want ErrNotConnected", err)
	}
	c.ConnectTo("B1")
	id1, err1 := c.Publish(map[string]message.Value{"k": message.Int(1)})
	id2, err2 := c.Publish(map[string]message.Value{"k": message.Int(2)})
	if err1 != nil || err2 != nil {
		t.Fatal("online publish failed:", err1, err2)
	}
	if id1.Publisher != "alice" || id1.Seq != 1 || id2.Seq != 2 {
		t.Errorf("ids = %v, %v", id1, id2)
	}
	last := (*log)[len(*log)-1]
	if last.m.Kind != proto.KPublish || last.m.Note.ID != id2 {
		t.Errorf("publish message wrong: %+v", last.m)
	}
	if last.m.Note.Published.IsZero() {
		t.Error("publish should stamp time")
	}
}

func deliver(c *Client, pub message.NodeID, seq uint64) {
	n := message.NewNotification(map[string]message.Value{"k": message.Int(int64(seq))})
	n.ID = message.NotificationID{Publisher: pub, Seq: seq}
	c.Receive("B1", proto.Message{Kind: proto.KDeliver, Note: &n})
}

func TestClientDeduplicates(t *testing.T) {
	c, _ := newTestClient("alice")
	deliver(c, "p", 1)
	deliver(c, "p", 1)
	deliver(c, "p", 2)
	if got := len(c.Received()); got != 2 {
		t.Errorf("received = %d, want 2", got)
	}
	if c.Duplicates() != 1 {
		t.Errorf("duplicates = %d, want 1", c.Duplicates())
	}
}

func TestClientFIFOViolations(t *testing.T) {
	c, _ := newTestClient("alice")
	deliver(c, "p", 1)
	deliver(c, "p", 3)
	deliver(c, "p", 2) // inversion
	deliver(c, "q", 1) // different publisher: fine
	if got := c.FIFOViolations(); got != 1 {
		t.Errorf("violations = %d, want 1", got)
	}
}

func TestClientOnDeliverCallback(t *testing.T) {
	c, _ := newTestClient("alice")
	var seen []uint64
	c.OnDeliver = func(d Delivery, _ <-chan struct{}) { seen = append(seen, d.Note.ID.Seq) }
	deliver(c, "p", 1)
	deliver(c, "p", 1) // dup: no callback
	if len(seen) != 1 || seen[0] != 1 {
		t.Errorf("OnDeliver saw %v", seen)
	}
}

func TestClientIgnoresNonDeliver(t *testing.T) {
	c, _ := newTestClient("alice")
	c.Receive("B1", proto.Message{Kind: proto.KPublish})
	c.Receive("B1", proto.Message{Kind: proto.KDeliver}) // nil note
	if len(c.Received()) != 0 {
		t.Error("non-deliveries recorded")
	}
}

func TestClientBorderReporting(t *testing.T) {
	c, _ := newTestClient("alice")
	if c.Border() != "" || c.Connected() {
		t.Error("fresh client should be disconnected")
	}
	c.ConnectTo("B1")
	if c.Border() != "B1" || !c.Connected() {
		t.Error("border not tracked")
	}
	c.Disconnect()
	if c.Border() != "" || c.Connected() {
		t.Error("disconnect not tracked")
	}
	c.Disconnect() // idempotent
}

func TestClientBoundedDeliveryLog(t *testing.T) {
	c, _ := newTestClient("alice")
	c.SetDeliveryLog(3)
	for seq := uint64(1); seq <= 7; seq++ {
		deliver(c, "p", seq)
	}
	got := c.Received()
	if len(got) != 3 {
		t.Fatalf("retained %d, want 3", len(got))
	}
	for i, want := range []uint64{5, 6, 7} {
		if got[i].Note.ID.Seq != want {
			t.Errorf("retained[%d].Seq = %d, want %d", i, got[i].Note.ID.Seq, want)
		}
	}
	if c.Delivered() != 7 {
		t.Errorf("delivered total = %d, want 7", c.Delivered())
	}
	// FIFO accounting is incremental: an inversion involving deliveries
	// the ring no longer retains is still counted.
	deliver(c, "p", 9)
	deliver(c, "p", 8)
	if c.FIFOViolations() != 1 {
		t.Errorf("violations = %d, want 1", c.FIFOViolations())
	}

	c2, _ := newTestClient("bob")
	c2.SetDeliveryLog(-1)
	deliver(c2, "p", 1)
	if c2.Received() != nil {
		t.Error("disabled log should retain nothing")
	}
	if c2.Delivered() != 1 {
		t.Error("disabled log should still count deliveries")
	}
}

func TestClientPublishBatch(t *testing.T) {
	c, log := newTestClient("alice")
	if _, err := c.PublishBatch([]map[string]message.Value{{"k": message.Int(1)}}); err != ErrNotConnected {
		t.Fatalf("batch while disconnected: %v, want ErrNotConnected", err)
	}
	c.ConnectTo("B1")
	*log = nil
	ids, err := c.PublishBatch([]map[string]message.Value{
		{"k": message.Int(1)},
		{"k": message.Int(2)},
		{"k": message.Int(3)},
	})
	if err != nil || len(ids) != 3 {
		t.Fatalf("batch publish: err=%v ids=%v", err, ids)
	}
	if len(*log) != 1 {
		t.Fatalf("batch framed %d wire messages, want 1", len(*log))
	}
	m := (*log)[0].m
	if m.Kind != proto.KPublishBatch || len(m.Notes) != 3 {
		t.Fatalf("frame = %v with %d notes, want publish-batch with 3", m.Kind, len(m.Notes))
	}
	for i, n := range m.Notes {
		if n.ID != ids[i] || n.ID.Seq != uint64(i+1) {
			t.Errorf("note %d has ID %v, want %v", i, n.ID, ids[i])
		}
	}
}

func TestClientOnDeliverHookSeesSubIDs(t *testing.T) {
	c, _ := newTestClient("alice")
	var got [][]message.SubID
	c.OnDeliver = func(d Delivery, _ <-chan struct{}) { got = append(got, d.Subs) }
	n := message.Notification{ID: message.NotificationID{Publisher: "p", Seq: 1}}
	c.Receive("B1", proto.Message{
		Kind: proto.KDeliver, Note: &n, SubIDs: []message.SubID{"alice/s1"},
	})
	if len(got) != 1 || len(got[0]) != 1 || got[0][0] != "alice/s1" {
		t.Errorf("hook saw %v, want [[alice/s1]]", got)
	}
}

// seqTransport records the sequence numbers of the publishes it carries, in
// send order. Safe for concurrent use.
type seqTransport struct {
	mu   sync.Mutex
	seqs []uint64
}

func (t *seqTransport) Attach(addr string, _ proto.Message) (message.NodeID, error) {
	return message.NodeID(addr), nil
}

func (t *seqTransport) Send(m proto.Message) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if m.Note != nil {
		t.seqs = append(t.seqs, m.Note.ID.Seq)
	}
	for _, n := range m.Notes {
		t.seqs = append(t.seqs, n.ID.Seq)
	}
	return nil
}

func (t *seqTransport) Disconnect() error { return nil }

// TestClientConcurrentUse drives one session from several goroutines at
// once — publishers, a subscriber churning its profile, a delivery pump, a
// roamer — and wants publishes on the wire in sequence order and every
// delivery accounted. Run it under -race.
func TestClientConcurrentUse(t *testing.T) {
	tr := &seqTransport{}
	c := New("alice", tr, nil)
	c.SetDeliveryLog(-1)
	var delivered atomic.Int64
	c.OnDeliver = func(Delivery, <-chan struct{}) { delivered.Add(1) }
	c.ConnectTo("B1")
	const publishers, each = 4, 200
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if i%10 == 0 {
					_, _ = c.PublishBatch([]map[string]message.Value{{"k": message.Int(1)}, {"k": message.Int(2)}})
				} else {
					_, _ = c.Publish(map[string]message.Value{"k": message.Int(int64(i))})
				}
			}
		}()
	}
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < each; i++ {
			c.Unsubscribe(c.Subscribe(filter.All()))
		}
	}()
	go func() {
		defer wg.Done()
		for seq := uint64(1); seq <= each; seq++ {
			n := message.Notification{ID: message.NotificationID{Publisher: "bob", Seq: seq}}
			c.Deliver(n, nil)
			c.Deliver(n, nil)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			c.ConnectTo(message.NodeID(fmt.Sprint("B", i%3)))
		}
	}()
	wg.Wait()

	for i := 1; i < len(tr.seqs); i++ {
		if tr.seqs[i] <= tr.seqs[i-1] {
			t.Fatalf("publish %d went out with seq %d after seq %d", i, tr.seqs[i], tr.seqs[i-1])
		}
	}
	if delivered.Load() != each || c.Duplicates() != each || c.Delivered() != each {
		t.Errorf("delivered %d (hook) / %d (tally), %d duplicates; want %d each", delivered.Load(), c.Delivered(), c.Duplicates(), each)
	}
	if len(c.Subscriptions()) != 0 {
		t.Errorf("profile holds %d subscriptions after balanced churn", len(c.Subscriptions()))
	}
}

// TestTallyAcrossDedupWindow counts duplicates and FIFO violations on one
// publisher's even sequence numbers, from below DefaultDedupWindow to
// beyond it.
func TestTallyAcrossDedupWindow(t *testing.T) {
	tally := NewTally()
	tally.Log.SetCap(-1)
	rec := func(seq uint64) bool {
		return tally.Record(Delivery{Note: message.Notification{
			ID: message.NotificationID{Publisher: "p", Seq: seq},
		}})
	}
	const records = DefaultDedupWindow + 50
	for i := uint64(1); i <= records; i++ {
		if !rec(2 * i) {
			t.Fatalf("fresh seq %d suppressed", 2*i)
		}
		if i%1000 == 0 && rec(2*i-200) {
			t.Fatalf("replay of seq %d delivered", 2*i-200)
		}
	}
	const top = 2 * records
	if rec(top) || rec(top-DefaultDedupWindow+2) || rec(2) {
		t.Error("replayed seqs delivered: newest, oldest in the window, below the floor")
	}
	if !rec(top - 1) {
		t.Error("fresh seq inside the window suppressed")
	}
	if rec(top - DefaultDedupWindow - 1) {
		t.Error("seq below the floor delivered")
	}
	if got, want := tally.Duplicates(), records/1000+4; got != want {
		t.Errorf("duplicates = %d, want %d", got, want)
	}
	if got := tally.FIFOViolations(); got != 1 {
		t.Errorf("FIFO violations = %d, want 1 (the late odd seq)", got)
	}
	if got, want := tally.Log.Total(), uint64(records+1); got != want {
		t.Errorf("deliveries counted = %d, want %d", got, want)
	}
}

// newBenchTally is a Tally with its delivery log off.
func newBenchTally() *Tally {
	t := NewTally()
	t.Log.SetCap(-1)
	return t
}

// tallyPastWindowProbe returns Tally.Record on one publisher's in-order
// stream that is already past DefaultDedupWindow IDs, each call the next
// sequence number.
func tallyPastWindowProbe() func() {
	t := newBenchTally()
	d := Delivery{Note: message.Notification{ID: message.NotificationID{Publisher: "pub0"}}}
	for seq := uint64(1); seq <= DefaultDedupWindow+1; seq++ {
		d.Note.ID.Seq = seq
		t.Record(d)
	}
	return func() {
		d.Note.ID.Seq++
		t.Record(d)
	}
}

// BenchmarkTallyRecord times the port's delivery accounting on one
// publisher's in-order stream with the delivery log off: first64k from an
// empty Tally up to DefaultDedupWindow IDs, past64k beyond that.
// TestTallyRecordAllocs holds past64k to 0 allocs; CI holds it to 4x
// first64k's time.
func BenchmarkTallyRecord(b *testing.B) {
	b.Run("first64k", func(b *testing.B) {
		d := Delivery{Note: message.Notification{ID: message.NotificationID{Publisher: "pub0"}}}
		b.ReportAllocs()
		var t *Tally
		for i := 0; i < b.N; i++ {
			if i%DefaultDedupWindow == 0 {
				t = newBenchTally()
			}
			d.Note.ID.Seq = uint64(i%DefaultDedupWindow) + 1
			t.Record(d)
		}
	})
	b.Run("past64k", func(b *testing.B) {
		record := tallyPastWindowProbe()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			record()
		}
	})
}

// TestTallyRecordAllocs: past the dedup window, recording an in-order
// delivery allocates nothing (BenchmarkTallyRecord/past64k).
func TestTallyRecordAllocs(t *testing.T) {
	if got := testing.AllocsPerRun(1000, tallyPastWindowProbe()); got != 0 {
		t.Errorf("Tally.Record past the dedup window: %v allocs, want 0", got)
	}
}

// A publisher identity persisted on a WAL survives the process being
// killed: the next incarnation starts one epoch later and strictly above
// everything the previous one had reserved.
func TestPubSequencerResumesAcrossWALReopen(t *testing.T) {
	dir := t.TempDir()
	w, err := store.OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	s := NewPubSequencer(w, "pub")
	for i := 0; i < PubSeqQuantum+10; i++ {
		s.Next()
	}
	const ceiling = 2 * PubSeqQuantum // the second quantum was reserved at seq 257

	w2, err := store.OpenWAL(dir) // no Close before: recover from the raw files
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	s2 := NewPubSequencer(w2, "pub")
	if s2.Epoch() != s.Epoch()+1 {
		t.Errorf("epoch %d after %d, want +1", s2.Epoch(), s.Epoch())
	}
	if next := s2.Next(); next != ceiling+1 {
		t.Errorf("resumed at %d, want %d (last assigned %d, reserved ceiling %d)", next, ceiling+1, s.Last(), ceiling)
	}
}
