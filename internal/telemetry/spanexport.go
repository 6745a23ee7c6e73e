package telemetry

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// ContentTypeSpans is the Content-Type of an outbound span batch: a
// sequence of length-framed JSON SpanExport records (4-byte big-endian
// frame length, then that many bytes of JSON).
const ContentTypeSpans = "application/x-rebeca-spans"

// maxSpanFrame bounds one decoded span frame. A record is a hop path plus
// an ID — kilobytes at most; a larger length prefix means a corrupt or
// hostile body and decoding stops with an error instead of allocating.
const maxSpanFrame = 1 << 20

// SpanExport is one span record as shipped to a collector: the reporting
// process, the notification it traces, and the hop trail that process
// knew at export time (an early transit broker ships a prefix, the
// delivering broker the full trail — the collector merges).
type SpanExport struct {
	// Instance identifies the reporting process (a broker ID, or the
	// comma-joined broker IDs of an in-process deployment).
	Instance string `json:"instance,omitempty"`
	// Note is the traced notification ID as "publisher#seq".
	Note string `json:"note"`
	// Hops is the hop trail in stamping order.
	Hops []SpanExportHop `json:"hops,omitempty"`
	// LatencyMS is the worst end-to-end latency observed (0 = none yet).
	LatencyMS float64 `json:"latency_ms,omitempty"`
	// Reason tags retro-captured spans ("slow", "rate-limited", ...).
	Reason string `json:"reason,omitempty"`
}

// SpanExportHop is one hop of a shipped span.
type SpanExportHop struct {
	Broker string    `json:"broker"`
	At     time.Time `json:"at"`
}

// spanExportRecord renders one store change as an export record.
func spanExportRecord(instance string, ch SpanChange) SpanExport {
	rec := SpanExport{
		Instance:  instance,
		Note:      ch.ID.String(),
		LatencyMS: float64(ch.Span.Latency) / float64(time.Millisecond),
		Reason:    ch.Span.Reason,
	}
	for _, h := range ch.Span.Path {
		rec.Hops = append(rec.Hops, SpanExportHop{Broker: string(h.Broker), At: h.At})
	}
	return rec
}

// EncodeSpanBatch renders span records as one length-framed JSON batch
// body (the ContentTypeSpans wire format).
func EncodeSpanBatch(recs []SpanExport) ([]byte, error) {
	var b bytes.Buffer
	var frame [4]byte
	for _, rec := range recs {
		body, err := json.Marshal(rec)
		if err != nil {
			return nil, fmt.Errorf("telemetry: encode span %s: %w", rec.Note, err)
		}
		binary.BigEndian.PutUint32(frame[:], uint32(len(body)))
		b.Write(frame[:])
		b.Write(body)
	}
	return b.Bytes(), nil
}

// DecodeSpanBatch parses a length-framed span batch body. Records decoded
// before a framing error are returned alongside it.
func DecodeSpanBatch(r io.Reader) ([]SpanExport, error) {
	var out []SpanExport
	var frame [4]byte
	for {
		if _, err := io.ReadFull(r, frame[:]); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, fmt.Errorf("telemetry: span batch frame header: %w", err)
		}
		n := binary.BigEndian.Uint32(frame[:])
		if n > maxSpanFrame {
			return out, fmt.Errorf("telemetry: span frame of %d bytes exceeds the %d limit", n, maxSpanFrame)
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(r, body); err != nil {
			return out, fmt.Errorf("telemetry: span batch frame body: %w", err)
		}
		var rec SpanExport
		if err := json.Unmarshal(body, &rec); err != nil {
			return out, fmt.Errorf("telemetry: span batch record: %w", err)
		}
		out = append(out, rec)
	}
}
