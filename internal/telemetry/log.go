package telemetry

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"strings"
	"sync"
)

// LogSubsystems names the per-subsystem verbosity gates a Logger manages.
// Each subsystem is an independently tunable slog level: the overlay's
// link transitions, discovery membership events, the store's WAL
// rotation/compaction, the broker core's spanning-tree recomputations,
// and the wire layer's handshake refusals all emit under their own gate,
// so an operator can raise one subsystem to debug without drowning in
// the rest.
var LogSubsystems = []string{"broker", "discovery", "overlay", "store", "wire"}

// Logger is the deployment's structured log root: one slog output sink
// shared by every subsystem, with a runtime-adjustable level gate per
// subsystem (the /config log.<subsystem> knobs and rebeca-broker's
// -log-level flag). For hands internal packages a plain *slog.Logger, so
// they depend only on the standard library. Safe for concurrent use.
type Logger struct {
	sink slog.Handler

	mu     sync.Mutex
	levels map[string]*slog.LevelVar
}

// NewLogger builds a logger writing slog text lines to w (nil discards),
// with every subsystem initially gated at level.
func NewLogger(w io.Writer, level slog.Level) *Logger {
	if w == nil {
		w = io.Discard
	}
	// The sink itself passes everything; filtering is the per-subsystem
	// gate's job, so a knob raising one subsystem to debug takes effect
	// without rebuilding handlers.
	sink := slog.NewTextHandler(w, &slog.HandlerOptions{Level: slog.LevelDebug})
	l := &Logger{sink: sink, levels: make(map[string]*slog.LevelVar, len(LogSubsystems))}
	for _, sub := range LogSubsystems {
		lv := &slog.LevelVar{}
		lv.Set(level)
		l.levels[sub] = lv
	}
	return l
}

// levelVar resolves a subsystem's gate (registering unknown subsystems at
// info, so For never fails).
func (l *Logger) levelVar(subsystem string) *slog.LevelVar {
	l.mu.Lock()
	defer l.mu.Unlock()
	lv, ok := l.levels[subsystem]
	if !ok {
		lv = &slog.LevelVar{}
		lv.Set(slog.LevelInfo)
		l.levels[subsystem] = lv
	}
	return lv
}

// For returns the subsystem's logger: records carry a subsystem attribute
// and pass only while at or above the subsystem's current level gate. The
// returned logger is plain *slog.Logger — hand it to internal packages.
func (l *Logger) For(subsystem string) *slog.Logger {
	return slog.New(&gateHandler{
		inner: l.sink.WithAttrs([]slog.Attr{slog.String("subsystem", subsystem)}),
		level: l.levelVar(subsystem),
	})
}

// SetLevel retunes one subsystem's gate at runtime.
func (l *Logger) SetLevel(subsystem string, level slog.Level) error {
	l.mu.Lock()
	lv, ok := l.levels[subsystem]
	l.mu.Unlock()
	if !ok {
		return fmt.Errorf("unknown log subsystem %q (want one of %s)",
			subsystem, strings.Join(LogSubsystems, ", "))
	}
	lv.Set(level)
	return nil
}

// Level reads one subsystem's current gate (info for unknown names).
func (l *Logger) Level(subsystem string) slog.Level {
	return l.levelVar(subsystem).Level()
}

// RegisterKnobs exposes one log.<subsystem> knob per subsystem on the ops
// endpoint, so POST /config log.overlay=debug raises verbosity without a
// restart.
func (l *Logger) RegisterKnobs(ops *Ops) {
	l.mu.Lock()
	subs := make([]string, 0, len(l.levels))
	for sub := range l.levels {
		subs = append(subs, sub)
	}
	l.mu.Unlock()
	sort.Strings(subs)
	for _, sub := range subs {
		sub := sub
		ops.AddKnob("log."+sub, Knob{
			Help: fmt.Sprintf("%s subsystem log verbosity: debug|info|warn|error", sub),
			Get:  func() string { return FormatLevel(l.Level(sub)) },
			Set: func(v string) error {
				lvl, err := ParseLevel(v)
				if err != nil {
					return err
				}
				return l.SetLevel(sub, lvl)
			},
		})
	}
}

// ParseLevel parses a knob/flag verbosity name into a slog level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("bad log level %q (want debug|info|warn|error)", s)
}

// ParseLevelDefault parses a verbosity name, falling back to info for ""
// or unparseable input — the forgiving path for already-validated config.
func ParseLevelDefault(s string) slog.Level {
	l, err := ParseLevel(s)
	if err != nil {
		return slog.LevelInfo
	}
	return l
}

// FormatLevel renders a level in the knob vocabulary.
func FormatLevel(l slog.Level) string {
	switch {
	case l <= slog.LevelDebug:
		return "debug"
	case l <= slog.LevelInfo:
		return "info"
	case l <= slog.LevelWarn:
		return "warn"
	}
	return "error"
}

// gateHandler filters records against a shared LevelVar before forwarding
// to the sink — the mechanism behind runtime per-subsystem verbosity.
type gateHandler struct {
	inner slog.Handler
	level *slog.LevelVar
}

func (h *gateHandler) Enabled(_ context.Context, level slog.Level) bool {
	return level >= h.level.Level()
}

func (h *gateHandler) Handle(ctx context.Context, r slog.Record) error {
	return h.inner.Handle(ctx, r)
}

func (h *gateHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return &gateHandler{inner: h.inner.WithAttrs(attrs), level: h.level}
}

func (h *gateHandler) WithGroup(name string) slog.Handler {
	return &gateHandler{inner: h.inner.WithGroup(name), level: h.level}
}
