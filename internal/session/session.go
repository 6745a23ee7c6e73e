// Package session assembles the session layers of a border broker — the
// paper's layering (§2–§4) written down once: content-based routing in the
// broker, the replicator "on top of" the physical-mobility manager, then
// whatever the deployment adds. Every host of a broker (the simulator's
// cluster, the live loopback deployment, the rebeca-broker process) calls
// Attach; nothing else constructs a replicator or a manager.
package session

import (
	"rebeca/internal/broker"
	"rebeca/internal/buffer"
	"rebeca/internal/core"
	"rebeca/internal/mobility"
	"rebeca/internal/store"
)

// Config describes the stages one broker's middleware chain carries.
type Config struct {
	// Replication deploys a replicator (nil = none). The caller fills in
	// what only it knows — NLB, Locations, Context, PreSubscribe; Attach
	// supplies Broker, BufferFactory, Store and Shared.
	Replication *core.Config
	// SharedBuffers gives the replicator one shared per-broker notification
	// store in place of one buffer per virtual client (§4, E8).
	SharedBuffers bool
	// Mobility deploys a physical-mobility manager running this protocol
	// (ModeInvalid, the zero value = none).
	Mobility mobility.Mode
	// BufferFactory builds ghost and virtual-client buffers (nil =
	// unbounded).
	BufferFactory buffer.Factory
	// Store, when non-nil, backs both layers' buffers with persistence
	// queues and session profiles with snapshots; Layers.Recover resumes
	// what a previous process left there.
	Store store.Store
	// Middleware is appended after the session layers, in order: these
	// stages see only the traffic the session layers pass through.
	Middleware []broker.Middleware
}

// Layers is what Attach put on a broker's chain; absent layers are nil.
type Layers struct {
	Replicator *core.Replicator
	Manager    *mobility.Manager
	// Shared is the replicator's shared store under Config.SharedBuffers.
	Shared *buffer.Shared
}

// Attach builds the configured stages onto b's middleware chain. The order
// is fixed here and nowhere else: the replicator first, so it claims
// location-dependent subscriptions before the mobility manager records
// profiles; then the manager; then the caller's middleware.
func Attach(b *broker.Broker, cfg Config) Layers {
	if cfg.BufferFactory == nil {
		cfg.BufferFactory = func() buffer.Policy { return buffer.NewUnbounded() }
	}
	var l Layers
	if cfg.Replication != nil {
		rcfg := *cfg.Replication
		rcfg.Broker = b
		rcfg.BufferFactory = cfg.BufferFactory
		rcfg.Store = cfg.Store
		if cfg.SharedBuffers {
			l.Shared = buffer.NewShared()
			rcfg.Shared = l.Shared
		}
		l.Replicator = core.New(rcfg)
	}
	if cfg.Mobility != mobility.ModeInvalid {
		opts := []mobility.Option{mobility.WithBufferFactory(cfg.BufferFactory)}
		if cfg.Store != nil {
			opts = append(opts, mobility.WithStore(cfg.Store))
		}
		l.Manager = mobility.New(b, cfg.Mobility, opts...)
	}
	b.UseMiddleware(cfg.Middleware...)
	return l
}

// Recover resumes the ghost sessions a previous process persisted on the
// store (see mobility.Manager.Recover) and returns how many. Call it once
// the broker is wired into its overlay, on the broker's event loop.
func (l Layers) Recover() int {
	if l.Manager == nil {
		return 0
	}
	return l.Manager.Recover()
}
