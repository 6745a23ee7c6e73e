package main

import (
	"bytes"
	"fmt"
	"io"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"rebeca"
	"rebeca/internal/message"
)

// syncBuffer is a bytes.Buffer safe for the REPL writing while the test
// reads.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// repl is one run of the REPL, fed through a pipe.
type repl struct {
	t         *testing.T
	in        *io.PipeWriter
	out, errs syncBuffer
	done      chan error
	quitOnce  sync.Once
}

func startREPL(t *testing.T, id message.NodeID, addr string) *repl {
	t.Helper()
	pr, pw := io.Pipe()
	r := &repl{t: t, in: pw, done: make(chan error, 1)}
	go func() { r.done <- run(id, addr, pr, &r.out, &r.errs) }()
	t.Cleanup(r.quit)
	r.waitFor("connected to", 1)
	return r
}

// waitFor waits until the output holds want n times.
func (r *repl) waitFor(want string, n int) {
	r.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for strings.Count(r.out.String(), want) < n {
		if time.Now().After(deadline) {
			r.t.Fatalf("REPL output lacks %q ×%d:\n%s\nerrors:\n%s", want, n, r.out.String(), r.errs.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// do runs one command and waits for its acknowledgement.
func (r *repl) do(line, ack string) {
	r.t.Helper()
	n := strings.Count(r.out.String(), ack)
	if _, err := io.WriteString(r.in, line+"\n"); err != nil {
		r.t.Fatal(err)
	}
	r.waitFor(ack, n+1)
}

func (r *repl) quit() {
	r.quitOnce.Do(func() {
		_ = r.in.Close()
		select {
		case err := <-r.done:
			if err != nil {
				r.t.Errorf("run: %v", err)
			}
		case <-time.After(5 * time.Second):
			r.t.Error("REPL did not exit at EOF")
		}
	})
}

var deliveryLine = regexp.MustCompile(`<- \{[^}]*\}@(\S+)`)

// printed counts the deliveries the REPL printed, by notification ID.
func (r *repl) printed() map[string]int {
	out := make(map[string]int)
	for _, m := range deliveryLine.FindAllStringSubmatch(r.out.String(), -1) {
		out[m[1]]++
	}
	return out
}

func newLine2(t *testing.T) *rebeca.Live {
	t.Helper()
	live, err := rebeca.NewLive(rebeca.WithMovement(rebeca.Line(2)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = live.Close() })
	return live
}

func fleet(n int) map[string]rebeca.Value {
	return map[string]rebeca.Value{"kind": rebeca.String("fleet"), "n": rebeca.Int(int64(n))}
}

// TestREPLRoamRelocates: a `connect` to another broker is a relocation. The
// border the REPL left ghost-buffers what arrives while it is away; the
// new border pulls that backlog because the connect names the old one, and
// every note is printed exactly once.
func TestREPLRoamRelocates(t *testing.T) {
	live := newLine2(t)
	w := startREPL(t, "w", live.Addr("B0"))
	w.do("sub kind fleet", "subscribed w/s1")
	live.Settle()
	w.do("disconnect", "disconnected")
	live.Settle()

	pub := live.NewClient("pub")
	if err := pub.Connect("B0"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if _, err := pub.Publish(fleet(i)); err != nil {
			t.Fatal(err)
		}
	}
	live.Settle()

	w.do("connect "+live.Addr("B1"), "connected to "+live.Addr("B1"))
	deadline := time.Now().Add(5 * time.Second)
	for len(w.printed()) < 5 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	live.Settle()
	got := w.printed()
	for i := 1; i <= 5; i++ {
		if id := fmt.Sprintf("pub#%d", i); got[id] != 1 {
			t.Errorf("%s printed %d times, want 1", id, got[id])
		}
	}
	if len(got) != 5 {
		t.Errorf("printed %v, want pub#1..5 once each\n%s", got, w.out.String())
	}
}

// TestREPLSession pins the session behaviour the REPL shares with every
// other client: a subscription made while disconnected joins the profile
// without an error, a duplicate delivery is printed once, publishes carry
// their publish time, and — without a store — a restarted REPL under the
// same ID numbers its publishes from 1 again.
func TestREPLSession(t *testing.T) {
	live := newLine2(t)
	obs := live.NewClient("obs")
	if err := obs.Connect("B1"); err != nil {
		t.Fatal(err)
	}
	stream := obs.Subscribe(rebeca.NewFilter(rebeca.Eq("kind", rebeca.String("fleet"))))

	w := startREPL(t, "w", live.Addr("B0"))
	w.do("disconnect", "disconnected")
	w.do("sub kind fleet", "subscribed w/s1")
	w.do("connect "+live.Addr("B0"), "connected to "+live.Addr("B0"))
	if errs := w.errs.String(); errs != "" {
		t.Errorf("subscribing while disconnected: %s", errs)
	}
	live.Settle()

	for run := 0; run < 2; run++ {
		p := startREPL(t, "p", live.Addr("B1"))
		p.do("pub kind=fleet", "published p#1")
		p.quit()
		live.Settle()
	}

	select {
	case d := <-stream.Events():
		if d.Note.ID.String() != "p#1" || d.Note.Published.IsZero() {
			t.Errorf("observer got %s published at %v, want p#1 with its publish time", d.Note, d.Note.Published)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the observer got nothing")
	}
	if got := w.printed(); got["p#1"] != 1 || len(got) != 1 {
		t.Errorf("printed %v, want p#1 once (the restarted publisher's copy is a duplicate)\n%s", got, w.out.String())
	}
	if obs.Duplicates() != 1 {
		t.Errorf("observer counted %d duplicates, want 1", obs.Duplicates())
	}
}
