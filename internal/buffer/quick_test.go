package buffer

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"
	"time"

	"rebeca/internal/message"
)

// op is a random buffer operation for property tests.
type op struct {
	Kind  uint8 // 0..5: add, add, add, snapshot, clear, len
	Body  uint16
	Delta uint16 // virtual-time advance in ms
}

// Generate implements quick.Generator.
func (op) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(op{
		Kind:  uint8(r.Intn(6)),
		Body:  uint16(r.Intn(1 << 12)),
		Delta: uint16(r.Intn(20)),
	})
}

// model is the reference implementation: a plain slice with the window's
// bounds applied eagerly.
type model struct {
	ttl       time.Duration
	cap       int
	nullifies NullifyFunc
	entries   []entry
}

func (m *model) add(n message.Notification, now time.Time) {
	m.gc(now)
	if m.nullifies != nil {
		var kept []entry
		for _, e := range m.entries {
			if !m.nullifies(n, e.n) {
				kept = append(kept, e)
			}
		}
		m.entries = kept
	}
	m.entries = append(m.entries, entry{n: n, at: now})
	if m.cap > 0 && len(m.entries) > m.cap {
		m.entries = m.entries[len(m.entries)-m.cap:]
	}
}

func (m *model) snapshot(now time.Time) []message.Notification {
	m.gc(now)
	out := make([]message.Notification, len(m.entries))
	for i, e := range m.entries {
		out[i] = e.n
	}
	return out
}

func (m *model) gc(now time.Time) {
	if m.ttl == 0 {
		return
	}
	cut := now.Add(-m.ttl)
	i := 0
	for i < len(m.entries) && m.entries[i].at.Before(cut) {
		i++
	}
	m.entries = m.entries[i:]
}

// checkAgainstModel runs random op sequences against a Window with the
// given bounds and the model, with and without supersession by body (five
// distinct bodies, so keys collide), and compares snapshots.
func checkAgainstModel(t *testing.T, ttl time.Duration, cap int) {
	t.Helper()
	for _, nullifies := range map[string]NullifyFunc{"plain": nil, "semantic": NullifyByKey("body")} {
		f := func(ops []op) bool {
			p := &Window{ttl: ttl, n: cap, supersedes: nullifies}
			m := &model{ttl: ttl, cap: cap, nullifies: nullifies}
			now := t0
			seq := uint64(0)
			same := func() bool {
				got, want := p.Snapshot(now), m.snapshot(now)
				if len(got) != len(want) {
					return false
				}
				for i := range got {
					if got[i].ID != want[i].ID {
						return false
					}
				}
				return true
			}
			for _, o := range ops {
				now = now.Add(time.Duration(o.Delta) * time.Millisecond)
				switch o.Kind {
				case 0, 1, 2:
					seq++
					n := mkNote("p", seq, strconv.Itoa(int(o.Body%5)))
					p.Add(n, now)
					m.add(n, now)
				case 3:
					if !same() {
						return false
					}
				case 4:
					p.Clear()
					m.entries = nil
				case 5:
					if p.Len() < 0 {
						return false
					}
				}
			}
			return same()
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("supersedes=%v: %v", nullifies != nil, err)
		}
	}
}

func TestQuickUnboundedMatchesModel(t *testing.T) { checkAgainstModel(t, 0, 0) }

func TestQuickTimeBasedMatchesModel(t *testing.T) { checkAgainstModel(t, 50*time.Millisecond, 0) }

func TestQuickLastNMatchesModel(t *testing.T) { checkAgainstModel(t, 0, 7) }

func TestQuickCombinedMatchesModel(t *testing.T) { checkAgainstModel(t, 50*time.Millisecond, 7) }

// Property: the shared store's refcounts never leak — after clearing every
// digest, the store is empty.
func TestQuickSharedStoreNoLeak(t *testing.T) {
	f := func(ops []op, nDigests uint8) bool {
		k := int(nDigests%4) + 1
		s := NewShared()
		digests := make([]*Digest, k)
		for i := range digests {
			digests[i] = s.NewDigest()
		}
		now := t0
		seq := uint64(0)
		for _, o := range ops {
			now = now.Add(time.Duration(o.Delta) * time.Millisecond)
			seq++
			n := mkNote("p", seq, "x")
			digests[int(o.Body)%k].Add(n, now)
		}
		for _, d := range digests {
			d.Clear()
		}
		return s.Len() == 0 && s.Bytes() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Len always equals len(Snapshot) for a count-bounded window at
// the same instant.
func TestQuickLenConsistent(t *testing.T) {
	f := func(ops []op) bool {
		p := NewWindow(0, 5)
		now := t0
		seq := uint64(0)
		for _, o := range ops {
			now = now.Add(time.Duration(o.Delta) * time.Millisecond)
			seq++
			p.Add(mkNote("p", seq, "x"), now)
			if p.Len() != len(p.Snapshot(now)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
