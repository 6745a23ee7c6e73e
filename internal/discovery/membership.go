package discovery

import (
	"log/slog"
	"sync"

	"rebeca/internal/message"
)

// Host is the deployment-side surface a Membership drives: the wire node
// (live) or cluster (sim) that owns the actual overlay links. Calls
// arrive serialized on the membership's watch path.
type Host interface {
	// AddLink establishes an overlay link to peer. dial says this side
	// initiates (addr is the peer's overlay address); otherwise the peer
	// dials us and addr is informational.
	AddLink(peer message.NodeID, addr string, dial bool)
	// RemoveLink tears the overlay link to a departed peer down.
	RemoveLink(peer message.NodeID)
	// MembersChanged delivers the full membership snapshot after every
	// applied change — the mesh layer's feed for member/edge sets and
	// spanning-tree re-election.
	MembersChanged(entries []Entry)
}

// MembershipConfig configures one node's membership supervisor.
type MembershipConfig struct {
	// Self is this broker's ID; Addr its overlay listen address, as
	// registered for others to dial.
	Self message.NodeID
	Addr string
	// Ops is the broker's ops endpoint address, registered for a collector
	// to scrape ("" without one).
	Ops string
	// Peers optionally restricts this broker's adjacency (see
	// Entry.Peers). Empty links to every discovered broker.
	Peers []message.NodeID
	// Registry is the membership store to register with and watch.
	Registry Registry
	// Host receives link add/remove commands and membership snapshots.
	Host Host
	// OnEvent observes membership events ("join", "leave", "update") for
	// metrics; may be nil.
	OnEvent func(typ string)
	// Logger, when non-nil, receives structured membership events (one
	// info line per join/leave/update command applied).
	Logger *slog.Logger
}

// Membership supervises one broker's overlay links from a registry:
// Start registers the broker and watches the registry; every snapshot is
// diffed against the current link set, new peers get links dialed under
// the deterministic dial-direction rule (the lexicographically smaller ID
// dials, so both sides of an edge agree on exactly one connection),
// departed peers get links closed, and changed addresses get the link
// re-dialed.
type Membership struct {
	cfg  MembershipConfig
	mu   sync.Mutex
	got  bool // at least one snapshot observed
	self bool // self present in the last snapshot
	// links holds the currently desired peer links (peer → overlay addr).
	links  map[message.NodeID]string
	events map[string]uint64
	stop   func()
}

// NewMembership returns an idle supervisor; Start begins supervision.
func NewMembership(cfg MembershipConfig) *Membership {
	return &Membership{
		cfg:    cfg,
		links:  make(map[message.NodeID]string),
		events: make(map[string]uint64),
	}
}

// Start registers the broker and begins watching the registry. Link
// commands flow to the host from here on. A registry with its own
// failure detector additionally feeds suspect/refute/tombstone verdicts
// into the membership event counters — link closure itself still rides
// the snapshot diff (a tombstone drops the member from the next
// snapshot, and apply closes the link), so verdicts are observability,
// not a second removal path.
func (m *Membership) Start() error {
	err := m.cfg.Registry.Register(Entry{ID: m.cfg.Self, Addr: m.cfg.Addr, Ops: m.cfg.Ops, Peers: m.cfg.Peers})
	if err != nil {
		return err
	}
	if fd, ok := m.cfg.Registry.(FailureDetector); ok {
		fd.OnVerdict(m.verdict)
	}
	m.stop = m.cfg.Registry.Watch(m.apply)
	return nil
}

// verdict records one failure-detection transition about a peer.
func (m *Membership) verdict(id message.NodeID, verdict string) {
	if id == m.cfg.Self {
		return
	}
	m.mu.Lock()
	m.events[verdict]++
	onEvent := m.cfg.OnEvent
	m.mu.Unlock()
	if l := m.cfg.Logger; l != nil {
		l.Info("membership "+verdict, "self", m.cfg.Self, "peer", id)
	}
	if onEvent != nil {
		onEvent(verdict)
	}
}

// Stop ends supervision; with deregister, the broker's entry is removed
// first so the fleet converges without waiting for failure detection.
func (m *Membership) Stop(deregister bool) {
	if m.stop != nil {
		m.stop()
		m.stop = nil
	}
	if deregister {
		_ = m.cfg.Registry.Deregister(m.cfg.Self)
	}
}

// apply diffs a membership snapshot against the current link set and
// drives the host.
func (m *Membership) apply(entries []Entry) {
	self := Entry{ID: m.cfg.Self, Peers: m.cfg.Peers}
	selfSeen := false
	for _, e := range entries {
		if e.ID == m.cfg.Self {
			self = e
			selfSeen = true
			break
		}
	}
	desired := make(map[message.NodeID]string)
	for _, e := range entries {
		if Linked(self, e) {
			desired[e.ID] = e.Addr
		}
	}

	type cmd struct {
		peer    message.NodeID
		addr    string
		add, rm bool
	}
	var cmds []cmd
	m.mu.Lock()
	m.got, m.self = true, selfSeen
	for peer, addr := range m.links {
		if want, ok := desired[peer]; !ok {
			cmds = append(cmds, cmd{peer: peer, rm: true})
			m.events["leave"]++
		} else if want != addr {
			cmds = append(cmds, cmd{peer: peer, addr: want, add: true, rm: true})
			m.events["update"]++
		}
	}
	for peer, addr := range desired {
		if _, ok := m.links[peer]; !ok {
			cmds = append(cmds, cmd{peer: peer, addr: addr, add: true})
			m.events["join"]++
		}
	}
	m.links = desired
	onEvent := m.cfg.OnEvent
	m.mu.Unlock()

	for _, c := range cmds {
		if c.rm {
			m.cfg.Host.RemoveLink(c.peer)
		}
		if c.add {
			// Deterministic dial direction: the smaller ID dials.
			m.cfg.Host.AddLink(c.peer, c.addr, m.cfg.Self < c.peer)
		}
		typ := "leave"
		switch {
		case c.add && c.rm:
			typ = "update"
		case c.add:
			typ = "join"
		}
		if l := m.cfg.Logger; l != nil {
			l.Info("membership "+typ, "self", m.cfg.Self, "peer", c.peer, "addr", c.addr)
		}
		if onEvent != nil {
			onEvent(typ)
		}
	}
	// Every snapshot reaches the mesh layer, even when our own link set
	// is unchanged: an edge between two *other* brokers may have appeared
	// or vanished, and the spanning-tree election needs the full graph.
	m.cfg.Host.MembersChanged(entries)
}

// Peers returns the number of currently linked peers — the
// rebeca_discovery_peers gauge.
func (m *Membership) Peers() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.links)
}

// Events returns cumulative membership event counts by type — the
// rebeca_discovery_events_total feed.
func (m *Membership) Events() map[string]uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]uint64, len(m.events))
	for k, v := range m.events {
		out[k] = v
	}
	return out
}

// Ready is the /readyz membership check: the broker must have observed a
// registry snapshot that includes itself.
func (m *Membership) Ready() (bool, string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case !m.got:
		return false, "no registry snapshot yet"
	case !m.self:
		return false, "self not in registry"
	}
	return true, "registered"
}
