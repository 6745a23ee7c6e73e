package collector

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"rebeca/internal/telemetry"
)

// maxPushBody bounds one ingested push body. The largest legitimate
// bodies are full prom-text snapshots of big deployments — hundreds of
// KiB; anything larger is hostile or corrupt.
const maxPushBody = 8 << 20

// Handler returns the collector's HTTP surface:
//
//	POST /...     ingest a push body (any path — brokers point -push here)
//	GET  /metrics merged fleet exposition (per-broker labels + fleet totals)
//	GET  /fleet   broker freshness status (JSON)
//	GET  /trace   assembled cross-broker traces (?note=publisher#seq)
//	GET  /count   push bodies accepted, as text (pushsink compatibility)
//	GET  /healthz liveness
func (c *Collector) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", c.handleMetrics)
	mux.HandleFunc("/fleet", c.handleFleet)
	mux.HandleFunc("/trace", c.handleTrace)
	mux.HandleFunc("/count", c.handleCount)
	mux.HandleFunc("/healthz", c.handleHealthz)
	mux.HandleFunc("/", c.handleIngest)
	return mux
}

// handleIngest accepts one push body: a span batch by its Content-Type,
// anything else as Prometheus text exposition — the one metrics encoding,
// so a body in any other format fails its parse and is a 400.
func (c *Collector) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "push bodies arrive by POST", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxPushBody+1))
	if err != nil {
		c.pushErrors.Inc()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(body) > maxPushBody {
		c.pushErrors.Inc()
		http.Error(w, "push body too large", http.StatusRequestEntityTooLarge)
		return
	}
	instance := r.Header.Get(telemetry.InstanceHeader)
	ctype := r.Header.Get("Content-Type")
	var (
		kind    *telemetry.Counter
		details string
	)
	if strings.Contains(ctype, "x-rebeca-spans") {
		recs, derr := telemetry.DecodeSpanBatch(bytes.NewReader(body))
		applied, aerr := c.ingestSpans(instance, recs)
		c.spanRecords.Add(uint64(applied))
		if derr == nil {
			derr = aerr
		}
		if derr != nil && applied == 0 {
			c.pushErrors.Inc()
			http.Error(w, derr.Error(), http.StatusBadRequest)
			return
		}
		kind = c.pushSpans
		details = fmt.Sprintf("%d span records", applied)
	} else {
		samples, err := ingestProm(body)
		if err != nil {
			c.pushErrors.Inc()
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		c.applySamples(orUnknown(instance), samples)
		kind = c.pushMetrics
		details = fmt.Sprintf("%d samples", len(samples))
	}
	kind.Inc()
	n := c.bumpAccepted()
	c.writeRaw(n, r.URL.Path, ctype, body)
	if c.cfg.Logger != nil {
		c.cfg.Logger.Debug("push accepted",
			"n", n, "instance", orUnknown(instance), "content_type", ctype, "details", details)
	}
	w.WriteHeader(http.StatusNoContent)
}

func orUnknown(instance string) string {
	if instance == "" {
		return "unknown"
	}
	return instance
}

func (c *Collector) bumpAccepted() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.accepted++
	return c.accepted
}

// writeRaw appends one accepted body to the audit sink, framed the way
// rebeca-pushsink framed it (CI greps rely on the body staying verbatim).
func (c *Collector) writeRaw(n uint64, path, ctype string, body []byte) {
	if c.cfg.Raw == nil {
		return
	}
	c.rawMu.Lock()
	defer c.rawMu.Unlock()
	fmt.Fprintf(c.cfg.Raw, "--- push %d %s %s\n", n, path, ctype)
	_, _ = c.cfg.Raw.Write(body)
	if len(body) == 0 || body[len(body)-1] != '\n' {
		fmt.Fprintln(c.cfg.Raw)
	}
}

// handleMetrics renders the merged fleet exposition: the collector's own
// self-telemetry (tagged with its instance), every broker's re-exported
// samples (instance labels preserved), and the folded fleet totals — one
// strict 0.0.4 document with one TYPE block per family.
func (c *Collector) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(c.renderMetrics())
}

// renderBlock is one metric family's render state.
type renderBlock struct {
	typ   string
	lines []string
}

func (c *Collector) renderMetrics() []byte {
	// Self-telemetry takes the path every broker's does — rendered, then
	// parsed by the one decoder — and before c.mu: the gauge collectors
	// registered in New lock c.mu themselves.
	var self bytes.Buffer
	_ = c.self.WritePrometheus(&self)
	selfSamples, _ := ingestProm(self.Bytes())

	blocks := make(map[string]*renderBlock)
	var order []string
	add := func(family, typ, line string) {
		blk, ok := blocks[family]
		if !ok {
			blk = &renderBlock{typ: typ}
			blocks[family] = blk
			order = append(order, family)
		}
		blk.lines = append(blk.lines, line)
	}
	for _, s := range selfSamples {
		add(s.family, s.typ, sampleLine(s.fullName, mergeInstanceKey(s.labelKey, c.cfg.Instance), s.value))
	}

	c.mu.Lock()
	for _, name := range c.famOrder {
		fam := c.fams[name]
		for _, row := range fam.rows {
			add(fam.name, fam.typ, sampleLine(row.fullName, row.labelKey, row.value))
		}
	}
	for _, name := range c.fleetOrd {
		add(name, "counter", sampleLine(name, "", c.fleet[name]))
	}
	c.mu.Unlock()

	var b bytes.Buffer
	for _, name := range order {
		blk := blocks[name]
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, blk.typ)
		for _, line := range blk.lines {
			b.WriteString(line)
		}
	}
	return b.Bytes()
}

func sampleLine(name, labelKey string, v float64) string {
	return name + labelKey + " " + telemetry.FormatValue(v) + "\n"
}

func (c *Collector) handleFleet(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(c.Fleet())
}

// traceList is the /trace (no note) JSON body: assembled traces,
// newest first.
type traceList struct {
	Retained int              `json:"retained"`
	Traces   []AssembledTrace `json:"traces"`
}

func (c *Collector) handleTrace(w http.ResponseWriter, r *http.Request) {
	note := r.URL.Query().Get("note")
	if note == "" {
		limit := 0
		if s := r.URL.Query().Get("limit"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n < 0 {
				http.Error(w, fmt.Sprintf("bad limit %q", s), http.StatusBadRequest)
				return
			}
			limit = n
		}
		list := traceList{Retained: c.TraceCount(), Traces: c.Traces(limit)}
		if list.Traces == nil {
			list.Traces = []AssembledTrace{}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(list)
		return
	}
	id, err := telemetry.ParseNoteID(note)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	tr, ok := c.Trace(id)
	if !ok {
		http.Error(w, "unknown notification (no span shipped, or evicted)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(tr)
}

func (c *Collector) handleCount(w http.ResponseWriter, _ *http.Request) {
	fmt.Fprintf(w, "%d\n", c.Accepted())
}

func (c *Collector) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}
