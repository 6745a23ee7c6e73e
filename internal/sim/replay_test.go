package sim

import (
	"testing"
	"time"

	"rebeca/internal/broker"
	"rebeca/internal/filter"
	"rebeca/internal/location"
	"rebeca/internal/message"
	"rebeca/internal/movement"
	"rebeca/internal/proto"
)

// One handover, two replays, two deliver messages: the mobility manager's
// relocated ghost buffer (the static stream) and the replicator's
// pre-subscribed buffer (the menu at the new location) each reach the
// client as one KDeliver whose Notes hold every replayed note in
// (publisher, seq) order.
func TestHandoverReplayIsOneDeliverPerLayer(t *testing.T) {
	const notes = 8
	g := movement.Line(3)
	tally := &broker.MechanismTally{}
	cl, err := NewCluster(ClusterConfig{
		Movement:    g,
		Locations:   location.Regions(g.Nodes()),
		Mobility:    MobilityTransparent,
		Replication: ReplicationPreSubscribe,
		LinkLatency: time.Millisecond,
		Middleware:  []broker.Middleware{tally},
	})
	if err != nil {
		t.Fatal(err)
	}
	stock, menu := cl.AddClient("stock"), cl.AddClient("menu")
	stock.ConnectTo("B0")
	menu.ConnectTo("B1")
	mob := cl.AddClient("mob")
	mob.ConnectTo("B0")
	mob.Subscribe(filter.New(filter.Eq("service", message.String("stock"))))
	mob.SubscribeAt(filter.Eq("service", message.String("menu")))
	cl.Net.Run()
	mob.Disconnect()
	cl.Net.Run()
	for i := 0; i < notes; i++ {
		stock.Publish(map[string]message.Value{"service": message.String("stock")})
		n := location.Stamp(message.NewNotification(map[string]message.Value{
			"service": message.String("menu"),
		}), "region-B1")
		menu.Publish(n.Attrs)
	}
	cl.Net.Run()

	var frames []proto.Message
	cl.Net.Trace = func(_ time.Time, _, to message.NodeID, m proto.Message) {
		if to == "mob" && m.Kind == proto.KDeliver {
			frames = append(frames, m)
		}
	}
	mob.ConnectTo("B1")
	cl.Net.Run()

	if got := tally.Total(broker.MobilityReplayed); got != notes {
		t.Errorf("mobility.replayed = %d, want the %d stock notes", got, notes)
	}
	if got := tally.Total(broker.CoreReplayed); got != notes {
		t.Errorf("core.replayed = %d, want the %d menu notes", got, notes)
	}
	if len(frames) != 2 {
		t.Fatalf("the handover sent %d deliver messages, want one per replaying layer", len(frames))
	}
	for _, m := range frames {
		if m.Note != nil || len(m.Notes) != notes {
			t.Errorf("a replay carries note %v and %d batched notes, want %d batched", m.Note, len(m.Notes), notes)
		}
		for i := 1; i < len(m.Notes); i++ {
			if a, b := m.Notes[i-1].ID, m.Notes[i].ID; a.Publisher != b.Publisher || a.Seq >= b.Seq {
				t.Errorf("batch out of (publisher, seq) order: %v before %v", a, b)
			}
		}
	}
	if got := mob.Delivered(); got != 2*notes {
		t.Errorf("the client took %d notes, want %d", got, 2*notes)
	}
	if d, v := mob.Duplicates(), mob.FIFOViolations(); d != 0 || v != 0 {
		t.Errorf("dups=%d fifo=%d", d, v)
	}
}
