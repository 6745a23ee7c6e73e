package discovery

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"rebeca/internal/message"
)

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestEntryLinking(t *testing.T) {
	open := Entry{ID: "a", Addr: "x"}
	restricted := Entry{ID: "b", Addr: "y", Peers: []message.NodeID{"a"}}
	other := Entry{ID: "c", Addr: "z", Peers: []message.NodeID{"d"}}
	if !Linked(open, restricted) {
		t.Error("open+accepting pair not linked")
	}
	if Linked(open, other) {
		t.Error("one-sided acceptance linked: c restricts to d only")
	}
	if Linked(open, open) {
		t.Error("self-edge linked")
	}
}

func TestGraphDerivation(t *testing.T) {
	// A diamond with a chord, declared through adjacency restrictions.
	entries := []Entry{
		{ID: "b1", Peers: []message.NodeID{"b2", "b3"}},
		{ID: "b2", Peers: []message.NodeID{"b1", "b3", "b4"}},
		{ID: "b3", Peers: []message.NodeID{"b1", "b2", "b4"}},
		{ID: "b4", Peers: []message.NodeID{"b2", "b3"}},
	}
	members, edges := Graph(entries)
	wantMembers := []message.NodeID{"b1", "b2", "b3", "b4"}
	if !reflect.DeepEqual(members, wantMembers) {
		t.Errorf("members = %v, want %v", members, wantMembers)
	}
	wantEdges := [][2]message.NodeID{
		{"b1", "b2"}, {"b1", "b3"}, {"b2", "b3"}, {"b2", "b4"}, {"b3", "b4"},
	}
	if !reflect.DeepEqual(edges, wantEdges) {
		t.Errorf("edges = %v, want %v", edges, wantEdges)
	}
}

func TestOpenURIs(t *testing.T) {
	file := "file:" + filepath.Join(t.TempDir(), "peers.json")
	for _, tc := range []struct {
		uri     string
		want    any    // a value of the backend's type; nil = rejected
		wantErr string // substring of the rejection
	}{
		{uri: "bogus", wantErr: "want scheme:value"},
		{uri: "file:", wantErr: "want scheme:value"},
		{uri: "carrier:pigeon", wantErr: `unknown registry scheme "carrier" (want file or seed)`},
		{uri: "dns:_rebeca._tcp.example.com", wantErr: `unknown registry scheme "dns" (want file or seed)`},
		{uri: file, want: &FileRegistry{}},
		{uri: "seed:127.0.0.1:0", want: &GossipRegistry{}},
	} {
		r, err := Open(tc.uri)
		if tc.want == nil {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("Open(%q) = %v, want an error containing %q", tc.uri, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("Open(%q): %v", tc.uri, err)
			continue
		}
		_ = r.Close()
		if reflect.TypeOf(r) != reflect.TypeOf(tc.want) {
			t.Errorf("Open(%q) opened %T, want %T", tc.uri, r, tc.want)
		}
	}
}

// watchLog records every snapshot a Watch callback receives.
type watchLog struct {
	mu    sync.Mutex
	snaps [][]Entry
}

func (w *watchLog) record(es []Entry) {
	w.mu.Lock()
	w.snaps = append(w.snaps, es)
	w.mu.Unlock()
}

func (w *watchLog) count() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.snaps)
}

func (w *watchLog) last() []Entry {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.snaps) == 0 {
		return nil
	}
	return w.snaps[len(w.snaps)-1]
}

// repeats reports whether some snapshot equals the one delivered before it
// — a watcher fired without a change to show.
func (w *watchLog) repeats() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := 1; i < len(w.snaps); i++ {
		if fingerprint(w.snaps[i]) == fingerprint(w.snaps[i-1]) {
			return true
		}
	}
	return false
}

// TestRegistriesConform holds every Registry backend to the contract the
// interface states, with one script over two views of one membership — two
// FileRegistry values on one file (two processes), two gossip agents on
// loopback — each registering its own broker, as brokers do. Whatever one
// view writes the other must come to see; behaviour only one backend has
// (file leases and lock staleness, gossip suspicion and refutation) is
// tested where it lives.
func TestRegistriesConform(t *testing.T) {
	backends := map[string]func(t *testing.T) (a, b Registry){
		"file": func(t *testing.T) (Registry, Registry) {
			path := filepath.Join(t.TempDir(), "peers.json")
			a, b := NewFileRegistry(path), NewFileRegistry(path)
			a.SetPollInterval(10 * time.Millisecond)
			b.SetPollInterval(10 * time.Millisecond)
			return a, b
		},
		"gossip": func(t *testing.T) (Registry, Registry) {
			a, err := NewGossipRegistry("127.0.0.1:0", nil)
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewGossipRegistry("127.0.0.1:0", []string{a.Addr()})
			if err != nil {
				_ = a.Close()
				t.Fatal(err)
			}
			a.SetInterval(10 * time.Millisecond)
			b.SetInterval(10 * time.Millisecond)
			return a, b
		},
	}
	for name, open := range backends {
		t.Run(name, func(t *testing.T) {
			a, b := open(t)
			defer func() { _ = a.Close() }()
			defer func() { _ = b.Close() }()
			// Both views converge on want, and so does every live watcher.
			var live []*watchLog
			converge := func(what string, want []Entry) {
				t.Helper()
				sees := func(r Registry) bool {
					es, err := r.Discover()
					return err == nil && reflect.DeepEqual(es, want)
				}
				waitFor(t, func() bool { return sees(a) && sees(b) }, what+" on both views")
				for i, w := range live {
					waitFor(t, func() bool { return reflect.DeepEqual(w.last(), want) }, fmt.Sprintf("%s at watcher %d", what, i))
				}
			}

			// A fresh registry is an empty membership, and a watcher learns
			// that at once, on the caller's goroutine.
			for _, r := range []Registry{a, b} {
				if es, err := r.Discover(); err != nil || len(es) != 0 {
					t.Fatalf("fresh Discover = %v, %v", es, err)
				}
			}
			onA, onB, onB2 := &watchLog{}, &watchLog{}, &watchLog{}
			defer a.Watch(onA.record)()
			defer b.Watch(onB.record)()
			stopB2 := b.Watch(onB2.record)
			for i, w := range []*watchLog{onA, onB, onB2} {
				if w.count() != 1 || len(w.last()) != 0 {
					t.Fatalf("watcher %d: %d snapshots (last %v) after Watch returned, want one empty", i, w.count(), w.last())
				}
			}
			live = []*watchLog{onA, onB, onB2}

			// Register: each view its own broker, the later ID first —
			// snapshots are sorted by ID, and Peers and Ops round-trip.
			b1 := Entry{ID: "b1", Addr: "127.0.0.1:1", Ops: "127.0.0.1:91", Peers: []message.NodeID{"b2"}}
			b2 := Entry{ID: "b2", Addr: "127.0.0.1:2"}
			if err := b.Register(b2); err != nil {
				t.Fatal(err)
			}
			if err := a.Register(b1); err != nil {
				t.Fatal(err)
			}
			converge("registration", []Entry{b1, b2})

			// Re-Register upserts Addr and Peers in place.
			b1 = Entry{ID: "b1", Addr: "127.0.0.1:9", Ops: "127.0.0.1:91", Peers: []message.NodeID{"b2", "b3"}}
			if err := a.Register(b1); err != nil {
				t.Fatal(err)
			}
			converge("upsert", []Entry{b1, b2})

			// An entry that changes only its ops endpoint is a change too:
			// a collector reading the registry must see the new address.
			b1.Ops = "127.0.0.1:92"
			if err := a.Register(b1); err != nil {
				t.Fatal(err)
			}
			converge("ops change", []Entry{b1, b2})

			// A stopped watcher never fires again; its sibling still does.
			stopB2()
			live = live[:2]
			stopped := onB2.count()
			if err := a.Deregister("b1"); err != nil {
				t.Fatal(err)
			}
			converge("deregistration", []Entry{b2})
			// Deregistering what is not there is not an error.
			if err := a.Deregister("b1"); err != nil {
				t.Fatal(err)
			}

			// Close stops the view's watchers and is idempotent; the other
			// view carries on, and a returning broker is a member again.
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			if err := b.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
			closed := onB.count()
			late := &watchLog{}
			b.Watch(late.record)()
			if err := a.Register(b1); err != nil {
				t.Fatal(err)
			}
			waitFor(t, func() bool { return reflect.DeepEqual(onA.last(), []Entry{b1, b2}) }, "re-registration at the open view's watcher")
			time.Sleep(50 * time.Millisecond) // five poll/gossip intervals
			if onB.count() != closed || late.count() != 0 {
				t.Errorf("closed view's watchers fired: %d -> %d snapshots, %d on a Watch after Close", closed, onB.count(), late.count())
			}
			if onB2.count() != stopped {
				t.Errorf("stopped watcher fired: %d -> %d snapshots", stopped, onB2.count())
			}
			// One snapshot per observed change: no watcher was handed the
			// same membership twice in a row.
			for i, w := range []*watchLog{onA, onB, onB2} {
				if w.repeats() {
					t.Errorf("watcher %d received a snapshot equal to its previous one: %v", i, w.snaps)
				}
			}
		})
	}
}

func TestFileRegistryHotReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "peers.json")
	r := NewFileRegistry(path)
	r.SetPollInterval(10 * time.Millisecond)
	defer func() { _ = r.Close() }()

	var mu sync.Mutex
	var last []Entry
	snapshots := 0
	stop := r.Watch(func(es []Entry) {
		mu.Lock()
		last = es
		snapshots++
		mu.Unlock()
	})
	defer stop()
	mu.Lock()
	if snapshots != 1 || len(last) != 0 {
		t.Fatalf("want one immediate empty snapshot, got %d/%v", snapshots, last)
	}
	mu.Unlock()

	// An external edit — another process's Register — is picked up by the
	// poll without any local call.
	if err := os.WriteFile(path, []byte(`[{"id":"b7","addr":"127.0.0.1:7"}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(last) == 1 && last[0].ID == "b7"
	}, "hot reload of an external registry edit")
}

func TestFileRegistryLockContention(t *testing.T) {
	// Many registries (processes) hammering one file must not lose
	// registrations: the sidecar lock serializes read-modify-write.
	path := filepath.Join(t.TempDir(), "peers.json")
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := NewFileRegistry(path)
			defer func() { _ = r.Close() }()
			errs[i] = r.Register(Entry{
				ID:   message.NodeID(fmt.Sprintf("b%d", i)),
				Addr: fmt.Sprintf("127.0.0.1:%d", 9000+i),
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("register %d: %v", i, err)
		}
	}
	es, err := NewFileRegistry(path).Discover()
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != n {
		t.Fatalf("lost registrations under contention: %d of %d survived (%v)", len(es), n, es)
	}
}

func TestFileRegistryStaleLockBroken(t *testing.T) {
	path := filepath.Join(t.TempDir(), "peers.json")
	// A crashed writer left its lock behind, older than the staleness
	// bound; the next writer must break it instead of timing out.
	lockPath := path + ".lock"
	if err := os.WriteFile(lockPath, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * lockStale)
	if err := os.Chtimes(lockPath, old, old); err != nil {
		t.Fatal(err)
	}
	r := NewFileRegistry(path)
	defer func() { _ = r.Close() }()
	if err := r.Register(Entry{ID: "b1", Addr: "x"}); err != nil {
		t.Fatalf("register under stale lock: %v", err)
	}
}

func TestGossipConvergenceAndTombstone(t *testing.T) {
	a, err := NewGossipRegistry("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	a.SetInterval(10 * time.Millisecond)
	b, err := NewGossipRegistry("127.0.0.1:0", []string{a.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()
	b.SetInterval(10 * time.Millisecond)

	if err := a.Register(Entry{ID: "a", Addr: "127.0.0.1:1"}); err != nil {
		t.Fatal(err)
	}
	if err := b.Register(Entry{ID: "b", Addr: "127.0.0.1:2"}); err != nil {
		t.Fatal(err)
	}
	both := func(r *GossipRegistry) bool {
		es, err := r.Discover()
		return err == nil && len(es) == 2
	}
	waitFor(t, func() bool { return both(a) && both(b) }, "gossip convergence on both views")

	// Deregistration travels as a tombstone, not by absence.
	if err := b.Deregister("b"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		es, err := a.Discover()
		return err == nil && len(es) == 1 && es[0].ID == "a"
	}, "tombstone to reach the peer")
}

func TestGossipSelfRefutation(t *testing.T) {
	a, err := NewGossipRegistry("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	a.SetInterval(10 * time.Millisecond)
	if err := a.Register(Entry{ID: "a", Addr: "127.0.0.1:1"}); err != nil {
		t.Fatal(err)
	}
	b, err := NewGossipRegistry("127.0.0.1:0", []string{a.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()
	b.SetInterval(10 * time.Millisecond)
	if err := b.Register(Entry{ID: "b", Addr: "127.0.0.1:2"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		es, err := b.Discover()
		return err == nil && len(es) == 2
	}, "initial convergence")
	// b spreads the rumor that a died (a failure detector's verdict, or a
	// stale tombstone from a's previous incarnation). When the tombstone
	// reaches a, the still-alive node must refute it by out-versioning —
	// and the refutation must win back the rumor's source.
	if err := b.Deregister("a"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		es, err := a.Discover()
		if err != nil {
			return false
		}
		for _, e := range es {
			if e.ID == "a" {
				return true
			}
		}
		return false
	}, "the node to refute its own death rumor")
	// The refutation must also win at the rumor's source.
	waitFor(t, func() bool {
		es, err := b.Discover()
		if err != nil {
			return false
		}
		for _, e := range es {
			if e.ID == "a" {
				return true
			}
		}
		return false
	}, "the refutation to propagate back")
}

// TestGossipRestartWithChangedEntry: a broker that restarts at the same
// address with a changed entry registers at version 1, below the record
// its previous incarnation left on every other agent. It must refute that
// record, or the fleet keeps the old entry for good.
func TestGossipRestartWithChangedEntry(t *testing.T) {
	a, err := NewGossipRegistry("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	a.SetInterval(10 * time.Millisecond)
	// No tombstone for the silent first incarnation within the test: the
	// refutation is the only way the new entry can win.
	a.SetFailureDetection(0, time.Hour)
	if err := a.Register(Entry{ID: "A", Addr: "127.0.0.1:1"}); err != nil {
		t.Fatal(err)
	}
	b, err := NewGossipRegistry("127.0.0.1:0", []string{a.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	b.SetInterval(10 * time.Millisecond)
	old := Entry{ID: "B", Addr: "127.0.0.1:2", Ops: "127.0.0.1:92", Peers: []message.NodeID{"A"}}
	for i := 0; i < 3; i++ {
		if err := b.Register(old); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		return a.records["B"].Version == 3
	}, "B's third registration at A")
	_ = b.Close() // a crash: no tombstone

	b2, err := NewGossipRegistry("127.0.0.1:0", []string{a.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b2.Close() }()
	b2.SetInterval(10 * time.Millisecond)
	fresh := Entry{ID: "B", Addr: "127.0.0.1:2", Ops: "127.0.0.1:93", Peers: []message.NodeID{"A", "C"}}
	if err := b2.Register(fresh); err != nil {
		t.Fatal(err)
	}
	sees := func(r *GossipRegistry) bool {
		es, err := r.Discover()
		if err != nil {
			return false
		}
		for _, e := range es {
			if e.ID == "B" {
				return reflect.DeepEqual(e, fresh)
			}
		}
		return false
	}
	waitFor(t, func() bool { return sees(a) && sees(b2) }, "the restarted entry on both agents")
}

// scriptedRegistry drives Membership.apply directly: snapshots are pushed
// by the test, Register/Deregister record calls.
type scriptedRegistry struct {
	mu         sync.Mutex
	registered []Entry
	deregs     []message.NodeID
	fn         func([]Entry)
}

func (s *scriptedRegistry) Register(e Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.registered = append(s.registered, e)
	return nil
}
func (s *scriptedRegistry) Deregister(id message.NodeID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.deregs = append(s.deregs, id)
	return nil
}
func (s *scriptedRegistry) Discover() ([]Entry, error) { return nil, nil }
func (s *scriptedRegistry) Watch(fn func([]Entry)) (stop func()) {
	s.mu.Lock()
	s.fn = fn
	s.mu.Unlock()
	return func() {}
}
func (s *scriptedRegistry) Close() error { return nil }

func (s *scriptedRegistry) push(es []Entry) {
	s.mu.Lock()
	fn := s.fn
	s.mu.Unlock()
	if fn != nil {
		fn(es)
	}
}

// recordingHost records link commands and snapshots.
type recordingHost struct {
	mu    sync.Mutex
	log   []string
	snaps int
}

func (h *recordingHost) AddLink(peer message.NodeID, addr string, dial bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.log = append(h.log, fmt.Sprintf("add %s %s dial=%v", peer, addr, dial))
}
func (h *recordingHost) RemoveLink(peer message.NodeID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.log = append(h.log, fmt.Sprintf("rm %s", peer))
}
func (h *recordingHost) MembersChanged([]Entry) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.snaps++
}
func (h *recordingHost) snapshot() ([]string, int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.log...), h.snaps
}

func TestMembershipLifecycle(t *testing.T) {
	reg := &scriptedRegistry{}
	host := &recordingHost{}
	m := NewMembership(MembershipConfig{
		Self:     "b2",
		Addr:     "127.0.0.1:2",
		Registry: reg,
		Host:     host,
	})
	if ok, why := m.Ready(); ok {
		t.Fatalf("ready before any snapshot (%s)", why)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	defer m.Stop(true)
	reg.mu.Lock()
	if len(reg.registered) != 1 || reg.registered[0].ID != "b2" || reg.registered[0].Addr != "127.0.0.1:2" {
		t.Fatalf("registered = %v", reg.registered)
	}
	reg.mu.Unlock()

	// First snapshot: b1 and b3 join. Dial direction is deterministic:
	// b2 dials only the lexicographically larger b3; b1 dials us.
	reg.push([]Entry{
		{ID: "b1", Addr: "127.0.0.1:1"},
		{ID: "b2", Addr: "127.0.0.1:2"},
		{ID: "b3", Addr: "127.0.0.1:3"},
	})
	log, snaps := host.snapshot()
	want := map[string]bool{
		"add b1 127.0.0.1:1 dial=false": false,
		"add b3 127.0.0.1:3 dial=true":  false,
	}
	for _, l := range log {
		if _, ok := want[l]; !ok {
			t.Errorf("unexpected host command %q", l)
		} else {
			want[l] = true
		}
	}
	for l, seen := range want {
		if !seen {
			t.Errorf("missing host command %q", l)
		}
	}
	if snaps != 1 {
		t.Errorf("MembersChanged calls = %d, want 1", snaps)
	}
	if m.Peers() != 2 {
		t.Errorf("Peers = %d, want 2", m.Peers())
	}
	if ok, why := m.Ready(); !ok {
		t.Errorf("not ready after self-including snapshot: %s", why)
	}

	// b3 departs; b1 moves. The changed address re-dials (rm then add).
	reg.push([]Entry{
		{ID: "b1", Addr: "127.0.0.1:99"},
		{ID: "b2", Addr: "127.0.0.1:2"},
	})
	log, snaps = host.snapshot()
	rest := log[2:]
	hasRm3, hasRm1, hasAdd1 := false, false, false
	for _, l := range rest {
		switch l {
		case "rm b3":
			hasRm3 = true
		case "rm b1":
			hasRm1 = true
		case "add b1 127.0.0.1:99 dial=false":
			hasAdd1 = true
		}
	}
	if !hasRm3 || !hasRm1 || !hasAdd1 {
		t.Errorf("departure/update commands missing: %v", rest)
	}
	if snaps != 2 {
		t.Errorf("MembersChanged calls = %d, want 2", snaps)
	}
	ev := m.Events()
	if ev["join"] != 2 || ev["leave"] != 1 || ev["update"] != 1 {
		t.Errorf("events = %v", ev)
	}

	// A snapshot that drops us flips readiness without dropping links.
	reg.push([]Entry{{ID: "b1", Addr: "127.0.0.1:99"}})
	if ok, why := m.Ready(); ok {
		t.Errorf("ready while absent from the registry (%s)", why)
	}

	m.Stop(true)
	reg.mu.Lock()
	if len(reg.deregs) != 1 || reg.deregs[0] != "b2" {
		t.Errorf("deregs = %v", reg.deregs)
	}
	reg.mu.Unlock()
}

func TestMembershipAdjacencyRestriction(t *testing.T) {
	reg := &scriptedRegistry{}
	host := &recordingHost{}
	m := NewMembership(MembershipConfig{
		Self:     "b1",
		Addr:     "127.0.0.1:1",
		Peers:    []message.NodeID{"b2"}, // link only to b2
		Registry: reg,
		Host:     host,
	})
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	defer m.Stop(false)
	reg.push([]Entry{
		{ID: "b1", Addr: "127.0.0.1:1", Peers: []message.NodeID{"b2"}},
		{ID: "b2", Addr: "127.0.0.1:2"},
		{ID: "b3", Addr: "127.0.0.1:3"},
	})
	log, _ := host.snapshot()
	if len(log) != 1 || log[0] != "add b2 127.0.0.1:2 dial=true" {
		t.Errorf("adjacency restriction not honored: %v", log)
	}
	if m.Peers() != 1 {
		t.Errorf("Peers = %d, want 1", m.Peers())
	}
}
