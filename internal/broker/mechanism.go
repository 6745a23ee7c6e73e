package broker

import (
	"sync"

	"rebeca/internal/message"
)

// Mechanism names one kind of event of the session layers' mechanisms: the
// replicator's pre-subscriptions and buffers (§3.2, §4) and the mobility
// manager's relocation protocol. The layers raise them, n occurrences at a
// time, through Broker.NotifyMechanism.
type Mechanism uint8

const (
	CoreBuffered              Mechanism = iota // notifications buffered by inactive virtual clients
	CoreReplayed                               // buffered notifications replayed on activation
	CoreWasted                                 // still buffered when their virtual client was collected: §4's price
	CoreReplicasCreated                        // virtual clients created
	CoreReplicasDeleted                        // virtual clients garbage-collected
	CoreActivations                            // handovers that found a warm replica
	CoreExceptionActivations                   // handovers that needed on-the-fly creation
	CoreFetchesServed                          // remote buffer fetches answered
	MobilityRelocations                        // completed inbound relocations
	MobilityBuffered                           // notifications buffered for ghosts or relocations
	MobilityReplayed                           // notifications replayed to a client after handover
	MobilityTapForwarded                       // stragglers forwarded to the new border
	MobilityDuplicatesDropped                  // merge-time duplicate suppressions
	MobilityRecoveredSessions                  // ghost sessions rebuilt from the store after a restart
	MobilityRecoveryErrors                     // persisted sessions that could not be decoded
	NumMechanisms                              // the number of mechanism events
)

// mechanismNames is the one name table: the benchmark's metric names, from
// which telemetry derives its families (core.wasted →
// rebeca_core_wasted_total).
var mechanismNames = [NumMechanisms]string{
	CoreBuffered:              "core.buffered",
	CoreReplayed:              "core.replayed",
	CoreWasted:                "core.wasted",
	CoreReplicasCreated:       "core.replicas_created",
	CoreReplicasDeleted:       "core.replicas_deleted",
	CoreActivations:           "core.activations",
	CoreExceptionActivations:  "core.exception_activations",
	CoreFetchesServed:         "core.fetches_served",
	MobilityRelocations:       "mobility.relocations",
	MobilityBuffered:          "mobility.buffered",
	MobilityReplayed:          "mobility.replayed",
	MobilityTapForwarded:      "mobility.tap_forwarded",
	MobilityDuplicatesDropped: "mobility.duplicates_dropped",
	MobilityRecoveredSessions: "mobility.recovered_sessions",
	MobilityRecoveryErrors:    "mobility.recovery_errors",
}

// String returns the event's name ("core.wasted").
func (e Mechanism) String() string { return mechanismNames[e] }

// MechanismTally is an in-memory MechanismObserver stage counting every
// mechanism event per broker; it passes everything else through, and has
// no OnPublish. The simulator's outcome and the tests read the session
// layers through it. Safe for concurrent use; the zero value is ready.
type MechanismTally struct {
	PassMiddleware
	mu sync.Mutex
	n  map[tallyKey]int
}

type tallyKey struct {
	b  message.NodeID
	ev Mechanism
}

// OnMechanism implements MechanismObserver.
func (t *MechanismTally) OnMechanism(b *Broker, ev Mechanism, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n == nil {
		t.n = make(map[tallyKey]int)
	}
	t.n[tallyKey{b.ID(), ev}] += n
}

// At returns broker b's count of ev.
func (t *MechanismTally) At(b message.NodeID, ev Mechanism) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n[tallyKey{b, ev}]
}

// Total returns ev's count summed over every broker.
func (t *MechanismTally) Total(ev Mechanism) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	sum := 0
	for k, n := range t.n {
		if k.ev == ev {
			sum += n
		}
	}
	return sum
}
