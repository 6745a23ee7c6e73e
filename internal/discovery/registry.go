// Package discovery is the broker membership subsystem: a pluggable
// Registry interface (modeled on the go-micro registry family —
// Register/Deregister/Discover/Watch behind one contract, with file and
// gossip backends, both held to it by TestRegistriesConform) plus a
// Membership supervisor that watches the registry and drives a
// deployment's overlay links. Brokers join a mesh by name
// (`rebeca-broker -registry file:peers.json -name b2`) instead of static
// -dial flags: discovered peers get links dialed under a
// deterministic dial-direction rule, departed peers get links closed, and
// membership changes feed the mesh layer's spanning-tree election.
package discovery

import (
	"fmt"
	"sort"
	"strings"

	"rebeca/internal/message"
)

// Entry is one broker's registration: its identity, the address its
// overlay transport listens on, an optional adjacency restriction and the
// address of its ops endpoint.
type Entry struct {
	ID   message.NodeID `json:"id"`
	Addr string         `json:"addr"`
	// Ops is the broker's HTTP ops endpoint ("" without one): what
	// rebeca-collector scrapes. Brokers sharing one endpoint (an in-process
	// deployment) register the same address.
	Ops string `json:"ops,omitempty"`
	// Peers restricts which other brokers this one links to. Empty means
	// "link to everyone" (full mesh). An edge (a, b) exists iff both sides
	// accept it: each side either names the other or restricts nothing —
	// so a registry file can describe sparse meshes (rings, diamonds,
	// chords) as well as full ones.
	Peers []message.NodeID `json:"peers,omitempty"`
	// Expires, when non-zero, is the unix-millisecond instant past which
	// this entry no longer counts as a member — the file backend's lease:
	// a broker with a TTL re-stamps its entry periodically, and a
	// SIGKILLed one stops, so its entry ages out with no operator pruning.
	// 0 means the entry never expires (the hand-written registry file).
	Expires int64 `json:"expires,omitempty"`
}

// Accepts reports whether this entry's adjacency restriction allows a
// link to peer.
func (e Entry) Accepts(peer message.NodeID) bool {
	if len(e.Peers) == 0 {
		return true
	}
	for _, p := range e.Peers {
		if p == peer {
			return true
		}
	}
	return false
}

// Linked reports whether an overlay edge exists between two entries: both
// sides must accept the other.
func Linked(a, b Entry) bool {
	return a.ID != b.ID && a.Accepts(b.ID) && b.Accepts(a.ID)
}

// Registry is the pluggable membership store. Implementations are safe
// for concurrent use.
type Registry interface {
	// Register upserts an entry (the caller's own, usually).
	Register(e Entry) error
	// Deregister removes an entry. A broker deregisters on graceful
	// shutdown so the fleet converges without waiting for failure
	// detection.
	Deregister(id message.NodeID) error
	// Discover returns the current membership snapshot, sorted by ID.
	Discover() ([]Entry, error)
	// Watch invokes fn with a full membership snapshot — once immediately,
	// then on every observed change — until the returned stop func is
	// called. fn runs on the registry's watch goroutine; keep it brief.
	Watch(fn func([]Entry)) (stop func())
	// Close releases the registry's resources (watch goroutines,
	// listeners). Registered entries are not deregistered implicitly.
	Close() error
}

// FailureDetector is the optional registry capability of noticing dead
// members on its own: backends that implement it (the gossip registry)
// emit verdicts — "suspect" when a member's agent goes silent, "refute"
// when a suspected member proves alive, "tombstone" when the suspicion
// expires into removal. Membership subscribes when its registry offers
// the capability, so the verdicts reach the discovery event counters.
type FailureDetector interface {
	OnVerdict(fn func(id message.NodeID, verdict string))
}

// Open builds a registry from a URI:
//
//	file:<path>                    hot-reloaded JSON file (array of entries)
//	seed:<listen>[,<seed-addr>…]   gossip mesh; listen is this node's
//	                               gossip address, seeds bootstrap it
func Open(uri string) (Registry, error) {
	scheme, rest, ok := strings.Cut(uri, ":")
	if !ok || rest == "" {
		return nil, fmt.Errorf("discovery: registry %q: want scheme:value (file:, seed:)", uri)
	}
	switch scheme {
	case "file":
		return NewFileRegistry(rest), nil
	case "seed":
		parts := strings.Split(rest, ",")
		return NewGossipRegistry(parts[0], parts[1:])
	}
	return nil, fmt.Errorf("discovery: unknown registry scheme %q (want file or seed)", scheme)
}

// Graph derives the overlay graph a membership snapshot describes: all
// member IDs and every edge both endpoints accept — the mesh layer's
// input for spanning-tree election.
func Graph(entries []Entry) (members []message.NodeID, edges [][2]message.NodeID) {
	for _, e := range entries {
		if e.ID != "" {
			members = append(members, e.ID)
		}
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	for i := range entries {
		for j := i + 1; j < len(entries); j++ {
			if Linked(entries[i], entries[j]) {
				edges = append(edges, [2]message.NodeID{entries[i].ID, entries[j].ID})
			}
		}
	}
	return members, edges
}

// sortEntries orders a snapshot by ID so snapshots compare stably.
func sortEntries(es []Entry) {
	sort.Slice(es, func(i, j int) bool { return es[i].ID < es[j].ID })
}

// fingerprint renders a snapshot to a comparable string (entries sorted
// by the caller).
func fingerprint(es []Entry) string {
	var b strings.Builder
	for _, e := range es {
		b.WriteString(string(e.ID))
		b.WriteByte('=')
		b.WriteString(e.Addr)
		b.WriteByte('|')
		b.WriteString(e.Ops)
		b.WriteByte('[')
		for i, p := range e.Peers {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(string(p))
		}
		b.WriteString("];")
	}
	return b.String()
}
