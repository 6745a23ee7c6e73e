package discovery

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"rebeca/internal/message"
)

// GossipRegistry is the self-election seed backend: every broker runs a
// tiny anti-entropy agent, and the cluster converges on a shared
// membership view with no external store — the fleet "elects itself" from
// nothing but a seed address list. Each agent holds versioned records
// (entry + incarnation version + tombstone) and periodically push-pulls
// its full record set with a random known peer; higher versions win, a
// node refutes stale records about itself by out-versioning them, and
// Deregister spreads a tombstone. Convergence is O(log n) rounds,
// SWIM/memberlist style but deliberately simple — membership here is
// tens of brokers, not thousands.
type GossipRegistry struct {
	ln net.Listener

	mu       sync.Mutex
	records  map[message.NodeID]gossipRecord
	self     message.NodeID // set by Register
	seeds    []string
	interval time.Duration
	watchers map[int]func([]Entry)
	nextID   int
	last     string
	closed   bool
	stop     chan struct{}
	done     chan struct{}

	// Failure detection: a member whose gossip agent misses suspectAfter
	// consecutive attempted exchanges is suspected; a suspicion standing
	// for tombstoneAfter is converted to a tombstone (Dead + version
	// bump), which gossips out like a Deregister. A live peer refutes
	// either state the moment it exchanges again or out-versions the
	// record (the incarnation rule) — so only the genuinely silent die.
	suspectAfter   int
	tombstoneAfter time.Duration
	misses         map[message.NodeID]int
	suspected      map[message.NodeID]time.Time
	verdictFns     []func(id message.NodeID, verdict string)
}

// gossipRecord is one node's versioned registration as exchanged on the
// gossip wire.
type gossipRecord struct {
	Entry   Entry  `json:"entry"`
	Gossip  string `json:"gossip"` // the owner's gossip listen address
	Version uint64 `json:"version"`
	Dead    bool   `json:"dead,omitempty"`
}

// gossipInterval is the default anti-entropy round cadence.
const gossipInterval = 300 * time.Millisecond

// Failure-detection defaults: ~1s of silence raises a suspicion, ~2s
// more turns it into a tombstone — a SIGKILLed broker leaves every
// survivor's view in a few seconds with no operator action.
const (
	defaultSuspectAfter   = 3
	defaultTombstoneAfter = 2 * time.Second
)

// NewGossipRegistry starts a gossip agent listening on listen (host:port;
// port 0 picks one) and bootstrapping from the seed addresses — other
// agents' gossip addresses, any alive subset suffices.
func NewGossipRegistry(listen string, seeds []string) (*GossipRegistry, error) {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("discovery: gossip listen %s: %w", listen, err)
	}
	kept := make([]string, 0, len(seeds))
	for _, s := range seeds {
		if s != "" && s != ln.Addr().String() {
			kept = append(kept, s)
		}
	}
	g := &GossipRegistry{
		ln:             ln,
		records:        make(map[message.NodeID]gossipRecord),
		seeds:          kept,
		interval:       gossipInterval,
		watchers:       make(map[int]func([]Entry)),
		stop:           make(chan struct{}),
		done:           make(chan struct{}),
		suspectAfter:   defaultSuspectAfter,
		tombstoneAfter: defaultTombstoneAfter,
		misses:         make(map[message.NodeID]int),
		suspected:      make(map[message.NodeID]time.Time),
	}
	go g.serve()
	go g.loop()
	return g, nil
}

// Addr returns the agent's bound gossip address — what other nodes list
// as a seed.
func (g *GossipRegistry) Addr() string { return g.ln.Addr().String() }

// SetInterval overrides the anti-entropy cadence (tests).
func (g *GossipRegistry) SetInterval(d time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if d > 0 {
		g.interval = d
	}
}

// SetFailureDetection tunes the suspect→tombstone machine: a member is
// suspected after misses consecutive failed exchanges with its agent and
// tombstoned once the suspicion stands for timeout. Non-positive values
// keep the current settings.
func (g *GossipRegistry) SetFailureDetection(misses int, timeout time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if misses > 0 {
		g.suspectAfter = misses
	}
	if timeout > 0 {
		g.tombstoneAfter = timeout
	}
}

// OnVerdict subscribes fn to failure-detection verdicts: "suspect" when
// a member's agent goes silent, "refute" when a suspected member proves
// alive, "tombstone" when a suspicion expires into removal. fn runs off
// the gossip round goroutine; keep it brief.
func (g *GossipRegistry) OnVerdict(fn func(id message.NodeID, verdict string)) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.verdictFns = append(g.verdictFns, fn)
}

// emitVerdicts fans verdicts out to subscribers. Callers must NOT hold
// g.mu.
func (g *GossipRegistry) emitVerdicts(verdicts [][2]string) {
	if len(verdicts) == 0 {
		return
	}
	g.mu.Lock()
	fns := make([]func(message.NodeID, string), len(g.verdictFns))
	copy(fns, g.verdictFns)
	g.mu.Unlock()
	for _, v := range verdicts {
		for _, fn := range fns {
			fn(message.NodeID(v[0]), v[1])
		}
	}
}

// Register asserts our own record at a fresh incarnation (out-versioning
// any tombstone a previous incarnation left behind).
func (g *GossipRegistry) Register(e Entry) error {
	g.mu.Lock()
	cur := g.records[e.ID]
	g.records[e.ID] = gossipRecord{Entry: e, Gossip: g.Addr(), Version: cur.Version + 1}
	g.self = e.ID
	g.mu.Unlock()
	g.broadcast()
	g.round() // push immediately so joins converge in one dial, not one tick
	return nil
}

// Deregister spreads a tombstone for id and pushes it out synchronously
// (best effort) so a graceful shutdown converges before the process
// exits.
func (g *GossipRegistry) Deregister(id message.NodeID) error {
	g.mu.Lock()
	cur, ok := g.records[id]
	if !ok || cur.Dead {
		g.mu.Unlock()
		return nil
	}
	cur.Dead = true
	cur.Version++
	g.records[id] = cur
	if id == g.self {
		// We gave the identity up: stop refuting tombstones about it, or
		// the first peer to echo ours back would resurrect the entry.
		g.self = ""
	}
	g.mu.Unlock()
	g.broadcast()
	g.round()
	return nil
}

// Discover returns the live entries of the current gossip view.
func (g *GossipRegistry) Discover() ([]Entry, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.snapshotLocked(), nil
}

func (g *GossipRegistry) snapshotLocked() []Entry {
	es := make([]Entry, 0, len(g.records))
	for _, rec := range g.records {
		if !rec.Dead && rec.Entry.ID != "" {
			es = append(es, rec.Entry)
		}
	}
	sortEntries(es)
	return es
}

// Watch broadcasts the gossip view on every convergence step.
func (g *GossipRegistry) Watch(fn func([]Entry)) (stop func()) {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return func() {}
	}
	id := g.nextID
	g.nextID++
	g.watchers[id] = fn
	es := g.snapshotLocked()
	g.last = fingerprint(es)
	g.mu.Unlock()
	fn(es)
	return func() {
		g.mu.Lock()
		delete(g.watchers, id)
		g.mu.Unlock()
	}
}

// broadcast notifies watchers when the view changed since the last
// broadcast.
func (g *GossipRegistry) broadcast() {
	g.mu.Lock()
	es := g.snapshotLocked()
	fp := fingerprint(es)
	if fp == g.last {
		g.mu.Unlock()
		return
	}
	g.last = fp
	fns := make([]func([]Entry), 0, len(g.watchers))
	for _, fn := range g.watchers {
		fns = append(fns, fn)
	}
	g.mu.Unlock()
	for _, fn := range fns {
		fn(es)
	}
}

// merge folds remote records into ours; higher versions win. A record
// about ourselves that is tombstoned or differs from our entry in any
// field is refuted by out-versioning it — the standard incarnation rule,
// so a restarted broker reclaims its identity with whatever it registered
// this time.
func (g *GossipRegistry) merge(remote []gossipRecord) (changed bool) {
	var refuted [][2]string
	g.mu.Lock()
	for _, rec := range remote {
		id := rec.Entry.ID
		if id == "" {
			continue
		}
		cur, ok := g.records[id]
		if id == g.self && g.self != "" {
			if rec.Version >= cur.Version &&
				(rec.Dead || fingerprint([]Entry{rec.Entry}) != fingerprint([]Entry{cur.Entry})) {
				cur.Version = rec.Version + 1
				cur.Dead = false
				g.records[id] = cur
				changed = true
			}
			continue
		}
		if !ok || rec.Version > cur.Version {
			g.records[id] = rec
			changed = true
			if !rec.Dead {
				// A fresher live record refutes any local suspicion — the
				// incarnation rule applied to failure detection: only the
				// member itself (or an agent that heard from it) can
				// out-version, so the evidence of life is authoritative.
				if _, sus := g.suspected[id]; sus {
					refuted = append(refuted, [2]string{string(id), "refute"})
				}
				delete(g.suspected, id)
				delete(g.misses, id)
			}
		}
	}
	g.mu.Unlock()
	g.emitVerdicts(refuted)
	return changed
}

// exchange performs one push-pull with addr: send our records, merge the
// reply. Returns whether the full exchange completed — the failure
// detector's evidence of the remote agent's liveness.
func (g *GossipRegistry) exchange(addr string) bool {
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return false
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
	g.mu.Lock()
	ours := make([]gossipRecord, 0, len(g.records))
	for _, rec := range g.records {
		ours = append(ours, rec)
	}
	g.mu.Unlock()
	enc := json.NewEncoder(conn)
	if err := enc.Encode(ours); err != nil {
		return false
	}
	var theirs []gossipRecord
	if err := json.NewDecoder(conn).Decode(&theirs); err != nil {
		return false
	}
	if g.merge(theirs) {
		g.broadcast()
	}
	return true
}

// round gossips with up to two targets chosen from seeds and known live
// agents, then feeds the outcomes to the failure detector.
func (g *GossipRegistry) round() {
	g.mu.Lock()
	targets := make(map[string]bool, len(g.seeds)+len(g.records))
	for _, s := range g.seeds {
		targets[s] = true
	}
	for _, rec := range g.records {
		// Tombstoned members are not gossip targets: their agents are
		// gone, and redialing them forever would starve live exchanges.
		if !rec.Dead && rec.Gossip != "" && rec.Gossip != g.Addr() {
			targets[rec.Gossip] = true
		}
	}
	g.mu.Unlock()
	addrs := make([]string, 0, len(targets))
	for a := range targets {
		addrs = append(addrs, a)
	}
	rand.Shuffle(len(addrs), func(i, j int) { addrs[i], addrs[j] = addrs[j], addrs[i] })
	if len(addrs) > 2 {
		addrs = addrs[:2]
	}
	results := make(map[string]bool, len(addrs))
	for _, a := range addrs {
		results[a] = g.exchange(a)
	}
	g.assess(results)
}

// assess folds one round's exchange outcomes into the suspect→tombstone
// machine: consecutive misses raise suspicion, a completed exchange
// clears it, and a suspicion older than tombstoneAfter becomes a
// tombstone that gossips out like a Deregister (refutable by the
// member's next incarnation).
func (g *GossipRegistry) assess(results map[string]bool) {
	var verdicts [][2]string
	now := time.Now()
	changed := false
	g.mu.Lock()
	for id, rec := range g.records {
		if id == g.self || rec.Dead || rec.Gossip == "" {
			continue
		}
		ok, attempted := results[rec.Gossip]
		if !attempted {
			continue
		}
		if ok {
			if _, sus := g.suspected[id]; sus {
				verdicts = append(verdicts, [2]string{string(id), "refute"})
			}
			delete(g.suspected, id)
			delete(g.misses, id)
			continue
		}
		g.misses[id]++
		if g.misses[id] < g.suspectAfter {
			continue
		}
		since, sus := g.suspected[id]
		if !sus {
			g.suspected[id] = now
			verdicts = append(verdicts, [2]string{string(id), "suspect"})
			continue
		}
		if now.Sub(since) >= g.tombstoneAfter {
			rec.Dead = true
			rec.Version++
			g.records[id] = rec
			delete(g.suspected, id)
			delete(g.misses, id)
			verdicts = append(verdicts, [2]string{string(id), "tombstone"})
			changed = true
		}
	}
	g.mu.Unlock()
	g.emitVerdicts(verdicts)
	if changed {
		g.broadcast()
	}
}

func (g *GossipRegistry) loop() {
	defer close(g.done)
	g.mu.Lock()
	interval := g.interval
	g.mu.Unlock()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-t.C:
			g.round()
		}
	}
}

func (g *GossipRegistry) serve() {
	for {
		conn, err := g.ln.Accept()
		if err != nil {
			return
		}
		go func(conn net.Conn) {
			defer conn.Close()
			_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
			var theirs []gossipRecord
			if err := json.NewDecoder(conn).Decode(&theirs); err != nil {
				return
			}
			changed := g.merge(theirs)
			g.mu.Lock()
			ours := make([]gossipRecord, 0, len(g.records))
			for _, rec := range g.records {
				ours = append(ours, rec)
			}
			g.mu.Unlock()
			_ = json.NewEncoder(conn).Encode(ours)
			if changed {
				g.broadcast()
			}
		}(conn)
	}
}

// Close stops the agent and its listener.
func (g *GossipRegistry) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	g.watchers = make(map[int]func([]Entry))
	g.mu.Unlock()
	close(g.stop)
	err := g.ln.Close()
	<-g.done
	return err
}
