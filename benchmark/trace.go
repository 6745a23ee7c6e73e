package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one notification share its
// ID as trace ID. Parent is the span this one ran inside (0 = none): the
// relation self times are computed over. Cause is the span that caused it.
// The two differ only where the path queues a message instead of calling
// the next broker from inside the sender: the receiver's spans run inside
// the note's root span but are caused by the sender's. Start and End are
// ns since the recorder was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Cause  int    `json:"cause"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// recorder keeps spans in memory; nothing is written until the run ends.
// A nil recorder records nothing, so the same code path runs traced and
// untraced and their difference is the tracing overhead.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder(capacity int) *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its ID (0 on a nil recorder).
func (r *recorder) begin(trace, name string, parent, cause int) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Cause: cause, Trace: trace, Name: name,
		Start: int64(time.Since(r.t0)),
	})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-1].End = int64(time.Since(r.t0))
}

// write dumps the spans as one JSON document.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(struct {
		Unit  string `json:"unit"`
		Spans []span `json:"spans"`
	}{"ns since trace start", r.spans}); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums, per span name, each span's duration minus the part of
// that interval its child spans cover (children may overlap each other and
// may outlive the parent; only the covered part inside the parent counts).
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += (s.End - s.Start) - covered(s, spans, children[s.ID])
	}
	return out
}

// covered is the length of the union of the child intervals clipped to
// the parent's interval.
func covered(parent span, spans []span, kids []int) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, reach int64
	reach = parent.Start
	for _, v := range ivs {
		if v.b <= reach {
			continue
		}
		total += v.b - max(v.a, reach)
		reach = v.b
	}
	return total
}
