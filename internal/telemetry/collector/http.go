package collector

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"rebeca/internal/telemetry"
)

// Handler returns the collector's HTTP surface, read-only:
//
//	GET /metrics merged fleet exposition (per-broker labels + fleet totals)
//	GET /fleet   broker freshness status (JSON)
//	GET /trace   assembled cross-broker traces (?note=publisher#seq)
//	GET /healthz liveness
func (c *Collector) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	mux.HandleFunc("GET /fleet", c.handleFleet)
	mux.HandleFunc("GET /trace", c.handleTrace)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	return mux
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
		http.Error(w, "unknown notification (no span read yet, or evicted)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(tr)
}

func (c *Collector) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}
