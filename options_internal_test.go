package rebeca

import (
	"strings"
	"testing"
	"time"

	"rebeca/internal/buffer"
	"rebeca/internal/message"
)

func TestOptionDefaults(t *testing.T) {
	g := Line(3)
	c, err := newConfig([]Option{WithMovement(g)})
	if err != nil {
		t.Fatal(err)
	}
	if c.movement != g {
		t.Error("movement not applied")
	}
	if c.locations == nil {
		t.Error("locations should default to one region per broker")
	}
	if got := c.locations.Scope("B0"); len(got) != 1 || got[0] != "region-B0" {
		t.Errorf("default location scope = %v, want [region-B0]", got)
	}
	if c.reactive {
		t.Error("boolean options should default to false")
	}
	if c.bufferFactory() != nil {
		t.Error("buffer factory should default to nil (unbounded)")
	}
	if c.settleQuiet != 50*time.Millisecond || c.settleMax != 10*time.Second {
		t.Errorf("settle window = (%s, %s), want (50ms, 10s)", c.settleQuiet, c.settleMax)
	}
	if c.linkLatency != 0 {
		t.Error("link latency should default to zero (deployment default)")
	}
	if len(c.middleware) != 0 {
		t.Error("middleware chain should default to empty")
	}
}

func TestOptionErrors(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
		want string
	}{
		{"no movement", nil, "movement graph is required"},
		{"nil movement", []Option{WithMovement(nil)}, "WithMovement(nil)"},
		{"negative ttl", []Option{WithMovement(Line(2)), WithBufferTTL(-time.Second)}, "negative"},
		{"negative cap", []Option{WithMovement(Line(2)), WithBufferCap(-1)}, "negative"},
		{"negative latency", []Option{WithMovement(Line(2)), WithLinkLatency(-1)}, "negative"},
		{"nil middleware", []Option{WithMovement(Line(2)), WithMiddleware(nil)}, "WithMiddleware(nil)"},
		{"bad settle window", []Option{WithMovement(Line(2)), WithSettleWindow(0, 0)}, "quiet"},
		{"zero heartbeat", []Option{WithMovement(Line(2)), WithHeartbeat(0, time.Second)}, "interval > 0"},
		{"short heartbeat timeout", []Option{WithMovement(Line(2)), WithHeartbeat(time.Second, time.Millisecond)}, "timeout >= interval"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := newConfig(tc.opts)
			if err == nil {
				t.Fatal("want error, got nil")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestBufferFactoryResolution(t *testing.T) {
	mk := func(opts ...Option) buffer.Policy {
		c, err := newConfig(append([]Option{WithMovement(Line(2))}, opts...))
		if err != nil {
			t.Fatal(err)
		}
		f := c.bufferFactory()
		if f == nil {
			return nil
		}
		return f()
	}
	if p := mk(); p != nil {
		t.Errorf("no bounds: policy = %T, want nil factory", p)
	}
	for name, opts := range map[string][]Option{
		"ttl":     {WithBufferTTL(time.Second)},
		"cap":     {WithBufferCap(5)},
		"ttl+cap": {WithBufferTTL(time.Second), WithBufferCap(5)},
	} {
		if p, ok := mk(opts...).(*buffer.Window); !ok {
			t.Errorf("%s: policy = %T, want *buffer.Window", name, p)
		}
	}
	// The bounds reach the window: three notes a second apart under a cap of
	// 2 and a TTL of 1.5 s leave one at the last add plus a second.
	p := mk(WithBufferTTL(1500*time.Millisecond), WithBufferCap(2))
	t0 := time.Unix(0, 0)
	for i := 0; i < 3; i++ {
		p.Add(message.Notification{ID: message.NotificationID{Publisher: "p", Seq: uint64(i + 1)}}, t0.Add(time.Duration(i)*time.Second))
	}
	if got := p.Len(); got != 2 {
		t.Errorf("cap 2 after 3 adds: Len = %d", got)
	}
	if got := p.Snapshot(t0.Add(3 * time.Second)); len(got) != 1 || got[0].ID.Seq != 3 {
		t.Errorf("ttl 1.5s at t=3s: snapshot = %v, want only seq 3", got)
	}
}
