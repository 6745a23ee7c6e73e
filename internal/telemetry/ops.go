package telemetry

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rebeca/internal/message"
)

// ReadyFunc is one readiness probe: ok=false holds /readyz at 503; detail
// explains why (shown on verbose probes and failures).
type ReadyFunc func() (ok bool, detail string)

// Knob is one runtime-adjustable setting exposed on /config. Get renders
// the current value; Set parses and applies a new one without a restart.
type Knob struct {
	// Help describes the knob in /config output.
	Help string
	// Get renders the current value.
	Get func() string
	// Set parses and applies a new value; an error rejects the request
	// with 400 and leaves the setting unchanged.
	Set func(value string) error
}

// Ops is the HTTP operations endpoint a deployment hosts next to its
// brokers: Prometheus /metrics, /healthz, /readyz (gated on registered
// readiness probes — overlay convergence), /trace?note=<id> (hop-path
// reconstruction from the span store) and /trace?since=<cursor> (the
// spans changed since a reader's cursor — what rebeca-collector reads),
// GET/POST /config (runtime knobs) and net/http/pprof under /debug/pprof/.
type Ops struct {
	reg   *Registry
	spans *SpanStore

	mu     sync.Mutex
	ready  []readyCheck
	knobs  map[string]Knob
	order  []string
	srv    *http.Server
	ln     net.Listener
	closed bool
}

type readyCheck struct {
	name string
	fn   ReadyFunc
}

// NewOps builds an ops endpoint over a registry and an optional span
// store (nil disables /trace). It serves nothing until Listen and Start.
func NewOps(reg *Registry, spans *SpanStore) *Ops {
	return &Ops{reg: reg, spans: spans, knobs: make(map[string]Knob)}
}

// Registry returns the registry /metrics renders.
func (o *Ops) Registry() *Registry { return o.reg }

// AddReadyCheck registers a named readiness probe; /readyz reports ready
// only while every registered probe passes.
func (o *Ops) AddReadyCheck(name string, fn ReadyFunc) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.ready = append(o.ready, readyCheck{name: name, fn: fn})
}

// AddKnob registers a runtime-adjustable setting under name.
func (o *Ops) AddKnob(name string, k Knob) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, ok := o.knobs[name]; !ok {
		o.order = append(o.order, name)
	}
	o.knobs[name] = k
}

// Handler returns the ops mux (also what Start serves) — the test and
// embedding surface.
func (o *Ops) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", o.handleMetrics)
	mux.HandleFunc("/healthz", o.handleHealthz)
	mux.HandleFunc("/readyz", o.handleReadyz)
	mux.HandleFunc("/trace", o.handleTrace)
	mux.HandleFunc("/config", o.handleConfig)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Listen binds addr (e.g. ":9090", "127.0.0.1:0"), so Addr is known
// before anything is served: a broker registers it before its probes
// exist. Connections wait in the listen backlog until Start.
func (o *Ops) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("telemetry: ops listen %s: %w", addr, err)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		_ = ln.Close()
		return errors.New("telemetry: ops endpoint closed")
	}
	o.ln = ln
	return nil
}

// Start serves the bound endpoint until Close (a no-op without Listen).
func (o *Ops) Start() {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.ln == nil {
		return
	}
	srv := &http.Server{Handler: o.Handler(), ReadHeaderTimeout: 5 * time.Second}
	o.srv = srv
	go func(ln net.Listener) { _ = srv.Serve(ln) }(o.ln)
}

// Addr returns the bound listen address ("" before Listen).
func (o *Ops) Addr() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.ln == nil {
		return ""
	}
	return o.ln.Addr().String()
}

// Close stops serving and releases the bound listener.
func (o *Ops) Close() error {
	o.mu.Lock()
	srv, ln := o.srv, o.ln
	o.srv = nil
	o.ln = nil
	o.closed = true
	o.mu.Unlock()
	switch {
	case srv != nil:
		return srv.Close()
	case ln != nil:
		return ln.Close()
	}
	return nil
}

func (o *Ops) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// ?exemplars=1 appends `# {note=...}` trailers to histogram bucket
	// lines — the cross-link into /trace. Off the plain scrape path, so
	// strict 0.0.4 parsers never see the non-standard trailer.
	if r.URL.Query().Get("exemplars") == "1" {
		_ = o.reg.WritePrometheusExemplars(w)
		return
	}
	_ = o.reg.WritePrometheus(w)
}

func (o *Ops) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (o *Ops) handleReadyz(w http.ResponseWriter, r *http.Request) {
	o.mu.Lock()
	checks := append([]readyCheck(nil), o.ready...)
	o.mu.Unlock()
	verbose := r.URL.Query().Has("verbose")
	var failed []string
	var lines []string
	for _, c := range checks {
		ok, detail := c.fn()
		status := "ok"
		if !ok {
			status = "not ready"
			failed = append(failed, c.name)
		}
		line := fmt.Sprintf("%s: %s", c.name, status)
		if detail != "" && (!ok || verbose) {
			line += " (" + detail + ")"
		}
		lines = append(lines, line)
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if len(failed) > 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "not ready")
		for _, l := range lines {
			fmt.Fprintln(w, l)
		}
		return
	}
	fmt.Fprintln(w, "ready")
	if verbose {
		for _, l := range lines {
			fmt.Fprintln(w, l)
		}
	}
}

// TraceHop is one hop of a served span.
type TraceHop struct {
	Hop    int       `json:"hop"`
	Broker string    `json:"broker"`
	At     time.Time `json:"at"`
}

// TraceSpan is one retained span as /trace serves it: the body of
// /trace?note=<id>, and each record of a /trace?since=<cursor> export.
type TraceSpan struct {
	Note      string     `json:"note"`
	LatencyMS float64    `json:"latency_ms,omitempty"`
	Reason    string     `json:"reason,omitempty"`
	Hops      []TraceHop `json:"hops"`
}

// TraceExport is the /trace?since=<cursor> body: the spans changed after
// cursor, oldest change first, and the cursor to resume from. Start is
// the span store's creation stamp: a cursor is valid only for the store
// that issued it, so a reader that sees Start change re-reads from 0.
type TraceExport struct {
	Start int64       `json:"start"`
	Next  uint64      `json:"next"`
	Spans []TraceSpan `json:"spans"`
}

// traceSpan renders one retained span.
func traceSpan(id message.NotificationID, span Span) TraceSpan {
	out := TraceSpan{
		Note:      id.String(),
		LatencyMS: float64(span.Latency) / float64(time.Millisecond),
		Reason:    span.Reason,
	}
	for i, h := range span.Path {
		out.Hops = append(out.Hops, TraceHop{Hop: i, Broker: string(h.Broker), At: h.At})
	}
	return out
}

// traceListEntry is one row of the bare /trace listing.
type traceListEntry struct {
	Note      string  `json:"note"`
	Hops      int     `json:"hops"`
	LatencyMS float64 `json:"latency_ms,omitempty"`
	Reason    string  `json:"reason,omitempty"`
}

// traceListResponse is the /trace (no note) JSON body: retained spans,
// newest first.
type traceListResponse struct {
	Retained int              `json:"retained"`
	Spans    []traceListEntry `json:"spans"`
}

// ParseNoteID parses the "publisher#seq" rendering of a NotificationID —
// the /trace?note= and TraceSpan.Note format.
func ParseNoteID(s string) (message.NotificationID, error) {
	i := strings.LastIndexByte(s, '#')
	if i <= 0 || i == len(s)-1 {
		return message.NotificationID{}, fmt.Errorf("bad note id %q (want publisher#seq)", s)
	}
	seq, err := strconv.ParseUint(s[i+1:], 10, 64)
	if err != nil {
		return message.NotificationID{}, fmt.Errorf("bad note id %q: %v", s, err)
	}
	return message.NotificationID{Publisher: message.NodeID(s[:i]), Seq: seq}, nil
}

func (o *Ops) handleTrace(w http.ResponseWriter, r *http.Request) {
	if o.spans == nil {
		http.Error(w, "tracing not enabled", http.StatusNotFound)
		return
	}
	if since := r.URL.Query().Get("since"); since != "" {
		cursor, err := strconv.ParseUint(since, 10, 64)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad since %q", since), http.StatusBadRequest)
			return
		}
		changes, next := o.spans.ExportSince(cursor)
		out := TraceExport{Start: o.spans.Start(), Next: next, Spans: make([]TraceSpan, 0, len(changes))}
		for _, ch := range changes {
			out.Spans = append(out.Spans, traceSpan(ch.ID, ch.Span))
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(out)
		return
	}
	note := r.URL.Query().Get("note")
	if note == "" {
		// No note: list retained spans newest-first, so operators (and
		// exemplar links) can browse without knowing an ID up front.
		limit := 0
		if s := r.URL.Query().Get("limit"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n < 0 {
				http.Error(w, fmt.Sprintf("bad limit %q", s), http.StatusBadRequest)
				return
			}
			limit = n
		}
		list := traceListResponse{Retained: o.spans.Len(), Spans: []traceListEntry{}}
		for _, info := range o.spans.List(limit) {
			list.Spans = append(list.Spans, traceListEntry{
				Note:      info.ID.String(),
				Hops:      info.Hops,
				LatencyMS: float64(info.Latency) / float64(time.Millisecond),
				Reason:    info.Reason,
			})
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(list)
		return
	}
	id, err := ParseNoteID(note)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	span, ok := o.spans.GetSpan(id)
	if !ok || (len(span.Path) == 0 && span.Reason == "") {
		http.Error(w, "unknown notification (not traced, or evicted)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(traceSpan(id, span))
}

func (o *Ops) handleConfig(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
	case http.MethodPost:
		if err := r.ParseForm(); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		o.mu.Lock()
		knobs := make(map[string]Knob, len(o.knobs))
		for name, k := range o.knobs {
			knobs[name] = k
		}
		o.mu.Unlock()
		// Validate every name first so a typo applies nothing.
		for name := range r.Form {
			if _, ok := knobs[name]; !ok {
				http.Error(w, fmt.Sprintf("unknown knob %q", name), http.StatusBadRequest)
				return
			}
		}
		for name, vals := range r.Form {
			if len(vals) == 0 {
				continue
			}
			if err := knobs[name].Set(vals[len(vals)-1]); err != nil {
				http.Error(w, fmt.Sprintf("%s: %v", name, err), http.StatusBadRequest)
				return
			}
		}
	default:
		http.Error(w, "use GET or POST", http.StatusMethodNotAllowed)
		return
	}
	o.mu.Lock()
	names := append([]string(nil), o.order...)
	knobs := make(map[string]Knob, len(o.knobs))
	for name, k := range o.knobs {
		knobs[name] = k
	}
	o.mu.Unlock()
	sort.Strings(names)
	type knobView struct {
		Value string `json:"value"`
		Help  string `json:"help"`
	}
	out := make(map[string]knobView, len(names))
	for _, name := range names {
		out[name] = knobView{Value: knobs[name].Get(), Help: knobs[name].Help}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(out)
}
