package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultPushSpool bounds the in-memory spool of undelivered push bodies.
const DefaultPushSpool = 64

// DefaultSpanBatch bounds the span records of one exported batch body.
const DefaultSpanBatch = 256

// InstanceHeader carries the reporting process's identity on every push
// POST: Prometheus text has no in-band instance, so this is how a
// collector attributes a metrics body.
const InstanceHeader = "X-Rebeca-Instance"

// PusherConfig configures a metrics push exporter.
type PusherConfig struct {
	// URL receives POSTed metric snapshots.
	URL string
	// Interval between snapshots (default 15s).
	Interval time.Duration
	// SpoolCap bounds bodies retained across receiver outages
	// (drop-oldest; default DefaultPushSpool).
	SpoolCap int
	// Instance tags payloads (and the InstanceHeader) with the reporting
	// broker's identity.
	Instance string
	// Spans, when non-nil, ships completed and retro-captured spans
	// outbound alongside metric snapshots as length-framed JSON batches
	// (ContentTypeSpans), through the same spool/retry machinery.
	Spans *SpanStore
	// SpanBatch bounds spans per exported batch (default DefaultSpanBatch).
	SpanBatch int
	// Client overrides the HTTP client (default: 5s-timeout client).
	Client *http.Client
	// MaxBackoff caps the retry backoff (default 2m).
	MaxBackoff time.Duration
	// Logger receives delivery-failure warnings (nil = silent).
	Logger *slog.Logger
}

// pushBody is one spooled POST body with its wire metadata. spans counts
// the span records inside a span batch (0 = a metrics snapshot).
type pushBody struct {
	data  []byte
	ctype string
	spans int
}

// Pusher periodically snapshots a Registry — and, when configured, the
// SpanStore's recent mutations — and POSTs them to a collector: the
// push-model complement to the /metrics scrape endpoint, for brokers
// behind NAT that nothing can scrape. Undeliverable bodies spool in a
// bounded drop-oldest ring and drain in order once the receiver returns,
// with exponential backoff between failed attempts.
type Pusher struct {
	reg *Registry
	cfg PusherConfig

	mu           sync.Mutex
	spool        []pushBody
	spanCursor   uint64 // SpanStore export cursor
	backoff      time.Duration
	blockedUntil time.Time

	attempts     atomic.Uint64
	failures     atomic.Uint64
	spansShipped atomic.Uint64
	spanFailures atomic.Uint64
	spoolDropped atomic.Uint64

	stop    chan struct{}
	done    chan struct{}
	started bool
}

// NewPusher builds a pusher over reg. Start launches it.
func NewPusher(reg *Registry, cfg PusherConfig) (*Pusher, error) {
	if cfg.URL == "" {
		return nil, fmt.Errorf("telemetry: push URL required")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 15 * time.Second
	}
	if cfg.SpoolCap <= 0 {
		cfg.SpoolCap = DefaultPushSpool
	}
	if cfg.SpanBatch <= 0 {
		cfg.SpanBatch = DefaultSpanBatch
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 5 * time.Second}
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 2 * time.Minute
	}
	return &Pusher{
		reg:  reg,
		cfg:  cfg,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}, nil
}

// Start launches the snapshot/push loop.
func (p *Pusher) Start() {
	p.mu.Lock()
	if p.started {
		p.mu.Unlock()
		return
	}
	p.started = true
	p.mu.Unlock()
	go p.run()
}

func (p *Pusher) run() {
	defer close(p.done)
	t := time.NewTicker(p.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			p.Flush()
		case <-p.stop:
			return
		}
	}
}

// Close stops the loop after one final snapshot and a best-effort drain of
// everything spooled — metric snapshots and span batches alike — even if a
// failed attempt had armed the backoff window.
func (p *Pusher) Close() {
	p.mu.Lock()
	started := p.started
	p.mu.Unlock()
	if started {
		select {
		case <-p.stop:
		default:
			close(p.stop)
		}
		<-p.done
	}
	p.flush(true)
}

// Flush snapshots the registry (and span store) into the spool and
// attempts to drain it — one synchronous push cycle. Exported so tests and
// Close can drive the cycle without waiting out the interval.
func (p *Pusher) Flush() { p.flush(false) }

func (p *Pusher) flush(force bool) {
	metric := p.snapshot()
	spans := p.snapshotSpans()
	p.mu.Lock()
	if metric.data != nil {
		p.spoolLocked(metric)
	}
	if spans.data != nil {
		p.spoolLocked(spans)
	}
	if !force && time.Now().Before(p.blockedUntil) {
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	p.drain()
}

// spoolLocked appends one body under the drop-oldest bound.
func (p *Pusher) spoolLocked(b pushBody) {
	if len(p.spool) >= p.cfg.SpoolCap {
		p.spool = p.spool[1:]
		p.spoolDropped.Add(1)
	}
	p.spool = append(p.spool, b)
}

// snapshot renders the current registry state as one push body — the
// Prometheus text exposition /metrics serves (zero body for an empty
// registry).
func (p *Pusher) snapshot() pushBody {
	var b bytes.Buffer
	if err := p.reg.WritePrometheus(&b); err != nil || b.Len() == 0 {
		return pushBody{}
	}
	return pushBody{data: b.Bytes(), ctype: "text/plain; version=0.0.4"}
}

// snapshotSpans drains the span store's mutations since the last cycle
// into one length-framed batch body. The cursor only advances for spans
// that made it into a body, so nothing is skipped; re-shipping after a
// failed POST is fine — collectors merge idempotently.
func (p *Pusher) snapshotSpans() pushBody {
	if p.cfg.Spans == nil {
		return pushBody{}
	}
	p.mu.Lock()
	cursor := p.spanCursor
	p.mu.Unlock()
	changes, next := p.cfg.Spans.ExportSince(cursor, p.cfg.SpanBatch)
	if len(changes) == 0 {
		return pushBody{}
	}
	recs := make([]SpanExport, 0, len(changes))
	for _, ch := range changes {
		recs = append(recs, spanExportRecord(p.cfg.Instance, ch))
	}
	body, err := EncodeSpanBatch(recs)
	if err != nil {
		return pushBody{}
	}
	p.mu.Lock()
	p.spanCursor = next
	p.mu.Unlock()
	return pushBody{data: body, ctype: ContentTypeSpans, spans: len(recs)}
}

// drain POSTs spooled bodies in order until empty or a delivery fails
// (which arms the backoff window).
func (p *Pusher) drain() {
	for {
		p.mu.Lock()
		if len(p.spool) == 0 {
			p.mu.Unlock()
			return
		}
		body := p.spool[0]
		p.mu.Unlock()

		// Span batches mirror the metric-push health counters on their own
		// pair, so operators can see span loss independently.
		if body.spans == 0 {
			p.attempts.Add(1)
		}
		err := p.post(body)
		p.mu.Lock()
		if err != nil {
			if body.spans > 0 {
				p.spanFailures.Add(1)
			} else {
				p.failures.Add(1)
			}
			if p.backoff <= 0 {
				p.backoff = p.cfg.Interval
			} else {
				p.backoff *= 2
			}
			if p.backoff > p.cfg.MaxBackoff {
				p.backoff = p.cfg.MaxBackoff
			}
			p.blockedUntil = time.Now().Add(p.backoff)
			p.mu.Unlock()
			if p.cfg.Logger != nil {
				p.cfg.Logger.Warn("metrics push failed",
					"url", p.cfg.URL, "err", err, "spooled", p.SpoolLen(), "backoff", p.backoff)
			}
			return
		}
		if body.spans > 0 {
			p.spansShipped.Add(uint64(body.spans))
		}
		p.backoff = 0
		p.blockedUntil = time.Time{}
		if len(p.spool) > 0 {
			p.spool = p.spool[1:]
		}
		p.mu.Unlock()
	}
}

func (p *Pusher) post(body pushBody) error {
	req, err := http.NewRequest(http.MethodPost, p.cfg.URL, bytes.NewReader(body.data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", body.ctype)
	if p.cfg.Instance != "" {
		req.Header.Set(InstanceHeader, p.cfg.Instance)
	}
	resp, err := p.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("receiver returned %s", resp.Status)
	}
	return nil
}

// Attempts counts metric push POSTs tried.
func (p *Pusher) Attempts() uint64 { return p.attempts.Load() }

// Failures counts metric push POSTs that failed.
func (p *Pusher) Failures() uint64 { return p.failures.Load() }

// SpansShipped counts span records delivered to the receiver.
func (p *Pusher) SpansShipped() uint64 { return p.spansShipped.Load() }

// SpanFailures counts span batch POSTs that failed.
func (p *Pusher) SpanFailures() uint64 { return p.spanFailures.Load() }

// SpoolLen returns the number of bodies awaiting delivery.
func (p *Pusher) SpoolLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.spool)
}

// SpoolDropped counts bodies evicted by the spool bound.
func (p *Pusher) SpoolDropped() uint64 { return p.spoolDropped.Load() }
