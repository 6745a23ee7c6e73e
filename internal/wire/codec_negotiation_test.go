package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"rebeca/internal/codec"
	"rebeca/internal/filter"
	"rebeca/internal/message"
	"rebeca/internal/overlay"
	"rebeca/internal/proto"
)

// legacyHello mirrors the gob handshake frame of the pre-binary releases
// — reconstructed here solely to prove it is now refused.
type legacyHello struct {
	ID message.NodeID
}

// TestLegacyGobPeerRefused pins the post-removal behavior: a peer opening
// with the old gob hello (no codec.Magic) is rejected with the diagnosis
// instead of negotiated down or left to time out, on both handshake
// sides.
func TestLegacyGobPeerRefused(t *testing.T) {
	// Accept side: a legacy node dials our listener with a gob hello.
	b := NewNode(NodeConfig{
		ID:     "B",
		Listen: "127.0.0.1:0",
		Peers:  map[message.NodeID]string{},
	})
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })

	c, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	bw := bufio.NewWriter(c)
	if err := gob.NewEncoder(bw).Encode(legacyHello{ID: "legacy"}); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	// The node must hang up rather than answer; a legacy peer would block
	// decoding our reply forever.
	var one [1]byte
	if _, err := c.Read(one[:]); err == nil {
		t.Fatal("accept side answered a gob hello; want the connection refused")
	}

	// Dial side: our handshake reaching a gob-speaking listener must fail
	// with the named diagnosis.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer func() { _ = conn.Close() }()
		w := bufio.NewWriter(conn)
		_ = gob.NewEncoder(w).Encode(legacyHello{ID: "legacy"})
		_ = w.Flush()
	}()
	if _, err := DialLink("probe", ln.Addr().String()); !errors.Is(err, errLegacyPeer) {
		t.Fatalf("dialing a legacy gob listener: err = %v, want errLegacyPeer", err)
	}
}

// TestVersion1PeerGetsRelayedAndTracedPublishes: a broker forwards both
// kinds of publish over a link whose peer negotiated protocol version 1 —
// an untraced one in the relay form, as the bytes it received, and a traced
// one decoded whole, its hop trail stripped — and the peer gets each in a
// frame a version-1 decoder accepts (no traced bit), with the note that was
// published.
func TestVersion1PeerGetsRelayedAndTracedPublishes(t *testing.T) {
	b := NewNode(NodeConfig{
		ID:     "B",
		Listen: "127.0.0.1:0",
		Peers:  map[message.NodeID]string{"A": ""}, // A dials
	})
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })

	// A is a version-1 peer, spoken by hand: its hello, B's hello back.
	c, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	_ = c.SetDeadline(time.Now().Add(10 * time.Second))
	bw, br := bufio.NewWriter(c), bufio.NewReader(c)
	_, _ = bw.Write(codec.Magic[:])
	_ = bw.WriteByte(1)
	_, _ = bw.Write([]byte{1, 'A'})
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	magic := make([]byte, len(codec.Magic))
	if _, err := io.ReadFull(br, magic); err != nil || !bytes.Equal(magic, codec.Magic[:]) {
		t.Fatalf("B's hello: %q, %v", magic, err)
	}
	if _, _, err := readBinaryHello(br); err != nil {
		t.Fatal(err)
	}
	enc := codec.NewEncoderVersion(bw, 1)
	// readFrame returns the next frame's payload as it came off the wire.
	readFrame := func() []byte {
		t.Helper()
		var hdr [4]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			t.Fatal(err)
		}
		payload := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
		if _, err := io.ReadFull(br, payload); err != nil {
			t.Fatal(err)
		}
		return payload
	}
	// Answer B's handshake with one subscription that takes everything.
	for {
		m, err := codec.DecodeMessage(readFrame())
		if err != nil {
			t.Fatal(err)
		}
		if m.Kind == proto.KHello {
			all := proto.Subscription{ID: "A/s1", Filter: filter.All()}
			if err := enc.Encode(proto.Message{Kind: proto.KSyncInstall, Origin: "A", Epoch: m.Epoch, Subs: []proto.Subscription{all}}); err != nil {
				t.Fatal(err)
			}
			if err := bw.Flush(); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	waitFor(t, func() bool { return b.LinkStates()["A"] == overlay.StateEstablished }, "link B-A established")

	// A client of B publishes one untraced and one traced note.
	pub, err := DialLink("pub", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pub.Close() }()
	sent := map[uint64]message.Notification{}
	for seq := uint64(1); seq <= 2; seq++ {
		n := message.NewNotification(map[string]message.Value{"k": message.Int(int64(seq)), "s": message.String("x")})
		n.ID = message.NotificationID{Publisher: "pub", Seq: seq}
		n.Published = time.Unix(0, 1055764800000000000+int64(seq))
		if seq == 2 {
			n.Path = []message.HopStamp{{Broker: "C", At: time.Unix(0, 1055764800000000001)}}
		}
		sent[seq] = n
		if err := pub.Send(proto.Message{Kind: proto.KPublish, Client: "pub", Note: &n}); err != nil {
			t.Fatal(err)
		}
	}
	for len(sent) > 0 {
		payload := readFrame()
		m, err := codec.DecodeMessage(payload)
		if err != nil {
			t.Fatal(err)
		}
		if m.Kind != proto.KPublish {
			continue // heartbeats
		}
		if payload[1]&16 != 0 {
			t.Fatalf("publish %v reached a version-1 peer with the traced bit set", m.Note.ID)
		}
		want, ok := sent[m.Note.ID.Seq]
		if !ok {
			t.Fatalf("unexpected publish %v", m.Note.ID)
		}
		delete(sent, m.Note.ID.Seq)
		want.Path = nil
		if !reflect.DeepEqual(*m.Note, want) {
			t.Errorf("publish %d reached the peer as %+v, want %+v", want.ID.Seq, *m.Note, want)
		}
	}
}

// TestClientChurnReleasesFlushers guards the conn-lifecycle fix: every
// Conn owns a flusher goroutine, so a client that disconnects (read pump
// exit) or reconnects under the same ID (conn replacement in register)
// must release the old conn — otherwise a churning broker leaks one
// goroutine, one fd and two bufio buffers per connect.
func TestClientChurnReleasesFlushers(t *testing.T) {
	b := NewNode(NodeConfig{
		ID:     "B",
		Listen: "127.0.0.1:0",
		Peers:  map[message.NodeID]string{},
	})
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })

	churn := func(id message.NodeID) {
		cl := NewRemoteClient(id, nil)
		if err := cl.Connect(b.Addr(), "", nil, 1); err != nil {
			t.Fatal(err)
		}
		if err := cl.Disconnect(); err != nil {
			t.Fatal(err)
		}
	}
	churn("warmup") // warm up structures
	runtime.GC()
	base := runtime.NumGoroutine()
	const cycles = 50
	for i := 0; i < cycles; i++ {
		// Distinct IDs: exercises the pump-exit release; repeated IDs
		// would also be saved by register()'s replace-and-close.
		churn(message.NodeID(fmt.Sprintf("churner-%d", i)))
	}
	waitFor(t, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= base+5
	}, "flusher goroutines to drain after client churn")
}
