package message

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// NodeID identifies a node in the system: a broker, a client, or a
// replicator endpoint. IDs are plain strings so that topologies read well in
// scenario files and logs ("B1", "office-3", "alice").
type NodeID string

// SubID identifies a subscription end to end. It is minted by the
// subscribing client library and travels with the subscription through the
// routing layer so that unsubscriptions and relocations can name it exactly.
type SubID string

// NotificationID identifies a published notification uniquely across the
// whole system: the publishing client plus a per-publisher sequence number.
// Links are FIFO (§2), so per-publisher sequence numbers are monotone along
// every path, which the mobility layers exploit for exactly-once replay.
type NotificationID struct {
	Publisher NodeID
	Seq       uint64
}

// String renders the ID as "publisher#seq".
func (id NotificationID) String() string {
	return fmt.Sprintf("%s#%d", id.Publisher, id.Seq)
}

// IsZero reports whether the ID is unset (e.g. a locally crafted test
// notification that never passed through a client library).
func (id NotificationID) IsZero() bool { return id.Publisher == "" && id.Seq == 0 }

// HopStamp records one broker hop of a traced notification: which broker
// routed it and when (that broker's virtual or wall clock).
type HopStamp struct {
	// Broker is the broker the notification transited.
	Broker NodeID
	// At is the broker-local time of the hop.
	At time.Time
}

// Notification is a message that reifies and describes an occurred event
// (§2). It carries a set of named, typed attributes; content-based filters
// are predicates over this attribute set.
type Notification struct {
	// ID uniquely identifies the notification (publisher + sequence).
	ID NotificationID
	// Published is the (virtual) time of publication, stamped by the
	// publishing client's local broker.
	Published time.Time
	// Attrs holds the notification content.
	Attrs map[string]Value
	// Path is the notification's broker hop trail, appended by the
	// telemetry middleware at every transit broker and propagated across
	// links by the binary codec's traced flags bit (protocol version 2).
	// Empty unless hop tracing is on.
	Path []HopStamp
}

// NewNotification builds a notification from alternating name/value pairs.
func NewNotification(attrs map[string]Value) Notification {
	cp := make(map[string]Value, len(attrs))
	for k, v := range attrs {
		cp[k] = v
	}
	return Notification{Attrs: cp}
}

// Get returns the named attribute and whether it is present.
func (n Notification) Get(name string) (Value, bool) {
	v, ok := n.Attrs[name]
	return v, ok
}

// Has reports whether the named attribute is present.
func (n Notification) Has(name string) bool {
	_, ok := n.Attrs[name]
	return ok
}

// Set returns a copy of the notification with the attribute set. The
// receiver is not modified; notifications are treated as immutable once
// published (they are shared across broker queues).
func (n Notification) Set(name string, v Value) Notification {
	cp := n.Clone()
	cp.Attrs[name] = v
	return cp
}

// Clone deep-copies the notification, including its attribute map and hop
// trail.
func (n Notification) Clone() Notification {
	cp := n
	cp.Attrs = make(map[string]Value, len(n.Attrs))
	for k, v := range n.Attrs {
		cp.Attrs[k] = v
	}
	if n.Path != nil {
		cp.Path = append([]HopStamp(nil), n.Path...)
	}
	return cp
}

// Equal reports attribute-wise equality (ID and timestamp excluded).
func (n Notification) Equal(o Notification) bool {
	if len(n.Attrs) != len(o.Attrs) {
		return false
	}
	for k, v := range n.Attrs {
		ov, ok := o.Attrs[k]
		if !ok || !v.Equal(ov) {
			return false
		}
	}
	return true
}

// WireSize approximates the notification's size in bytes on the wire. The
// transport layer uses it for bandwidth accounting in experiments E5/E6.
func (n Notification) WireSize() int {
	size := len(n.ID.Publisher) + 8 + 8 // id + seq + timestamp
	for k, v := range n.Attrs {
		size += len(k) + 2
		switch v.Kind() {
		case KindString:
			size += len(v.Str())
		case KindBool:
			size++
		default:
			size += 8
		}
	}
	return size
}

// String renders the notification with attributes in sorted order, which
// keeps log output and test goldens stable.
func (n Notification) String() string {
	names := make([]string, 0, len(n.Attrs))
	for k := range n.Attrs {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range names {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%s", k, n.Attrs[k])
	}
	b.WriteByte('}')
	if !n.ID.IsZero() {
		fmt.Fprintf(&b, "@%s", n.ID)
	}
	return b.String()
}

// ByID sorts notifications by (publisher, seq), the canonical replay order
// used when merging buffers during handover.
func ByID(ns []Notification) {
	sort.Slice(ns, func(i, j int) bool {
		a, b := ns[i].ID, ns[j].ID
		if a.Publisher != b.Publisher {
			return a.Publisher < b.Publisher
		}
		return a.Seq < b.Seq
	})
}
