package main

import (
	"fmt"
	"math/rand"

	"rebeca/internal/filter"
	"rebeca/internal/message"
	"rebeca/internal/movement"
)

// Workload names, in the order one command runs them.
const (
	wlTree    = "tree-steady"
	wlMesh    = "mesh-fanout-paced"
	wlRoaming = "roaming-durable"
	wlSim     = "sim-logical"
)

var workloadNames = []string{wlTree, wlMesh, wlRoaming, wlSim}

// poolSize is how many distinct note templates each publisher cycles
// through. The brokers keep no content-keyed state, so cycling changes no
// behaviour; it only bounds what the reference matcher has to pre-compute.
const poolSize = 4096

// Fan-out subscription shape: subsPerPort filters per subscriber port over
// fanoutServices service names, each with a numeric threshold.
const (
	subsPerPort    = 500
	fanoutServices = 100
)

// inputs is everything a workload feeds the system, derived from the seed
// alone: per-publisher note templates and per-subscriber-port filters.
// The same values drive the live run, the reference matcher and the
// per-layer timings, so a layer is always timed on the bytes its workload
// actually carries.
type inputs struct {
	workload string
	// pool[p] holds publisher p's note templates. Note i of publisher p is
	// pool[p][i%poolSize] with attribute "k" set to i.
	pool [][]map[string]message.Value
	// ports[s] holds subscriber port s's filters.
	ports [][]filter.Filter
	// matches[s][p][j] reports whether template j of publisher p is due at
	// port s: the reference matcher's verdict (filter.Filter.Matches over
	// every filter of the port).
	matches [][][]bool
}

func genInputs(workload string, seed int64) (*inputs, error) {
	r := rand.New(rand.NewSource(seed))
	in := &inputs{workload: workload}
	switch workload {
	case wlTree:
		// Smallest useful message: per-message cost dominates.
		in.pool = [][]map[string]message.Value{genPool(r, func(r *rand.Rand) map[string]message.Value {
			return map[string]message.Value{
				"service": message.String("temperature"),
				"value":   message.Float(r.Float64() * 40),
			}
		})}
		in.ports = [][]filter.Filter{{filter.New(filter.Exists("k"))}}
	case wlMesh:
		svc := func(i int) message.Value { return message.String(fmt.Sprintf("svc%d", i)) }
		for p := 0; p < 2; p++ {
			in.pool = append(in.pool, genPool(r, func(r *rand.Rand) map[string]message.Value {
				return map[string]message.Value{
					"service": svc(r.Intn(fanoutServices)),
					"value":   message.Float(r.Float64() * 100),
					"host":    message.String(fmt.Sprintf("host-%d", r.Intn(64))),
					"ok":      message.Bool(r.Intn(2) == 0),
				}
			}))
		}
		for s := 0; s < 2; s++ {
			fs := make([]filter.Filter, subsPerPort)
			for i := range fs {
				fs[i] = filter.New(
					filter.Eq("service", svc(r.Intn(fanoutServices))),
					filter.Gt("value", message.Float(r.Float64()*100)),
				)
			}
			in.ports = append(in.ports, fs)
		}
	case wlRoaming:
		in.pool = [][]map[string]message.Value{genPool(r, func(r *rand.Rand) map[string]message.Value {
			return map[string]message.Value{
				"service": message.String("quote"),
				"value":   message.Float(r.Float64() * 1000),
			}
		})}
		in.ports = [][]filter.Filter{{filter.New(filter.Exists("k"))}}
	case wlSim:
		// The scenario generates its own traffic from the seed; these are
		// the shapes it uses (one menu publisher per broker of the 4×4
		// grid plus a stock stream; one port per mobile holding a
		// location-bound menu subscription and a stock subscription), for
		// the layer timings.
		region := func(b int) message.Value { return message.String(fmt.Sprintf("region-B%d", b)) }
		in.pool = [][]map[string]message.Value{genPool(r, func(r *rand.Rand) map[string]message.Value {
			if r.Intn(simBrokers+1) == 0 {
				return map[string]message.Value{"service": message.String("stock"), "quote": message.Int(r.Int63n(1 << 20))}
			}
			return map[string]message.Value{
				"service":           message.String("menu"),
				"item":              message.Int(r.Int63n(1 << 20)),
				filter.AttrLocation: region(r.Intn(simBrokers)),
			}
		})}
		for m := 0; m < simMobiles; m++ {
			in.ports = append(in.ports, []filter.Filter{
				filter.New(filter.Eq("service", message.String("menu")), filter.Eq(filter.AttrLocation, region(r.Intn(simBrokers)))),
				filter.New(filter.Eq("service", message.String("stock"))),
			})
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", workload, workloadNames)
	}
	in.matches = referenceMatch(in.pool, in.ports)
	return in, nil
}

func genPool(r *rand.Rand, gen func(*rand.Rand) map[string]message.Value) []map[string]message.Value {
	pool := make([]map[string]message.Value, poolSize)
	for j := range pool {
		pool[j] = gen(r)
		pool[j]["k"] = message.Int(0)
	}
	return pool
}

// referenceMatch is the benchmark's own oracle: a template is due at a
// port when any of the port's filters matches it, decided by
// filter.Filter.Matches one filter at a time — no index, no routing table.
func referenceMatch(pool [][]map[string]message.Value, ports [][]filter.Filter) [][][]bool {
	out := make([][][]bool, len(ports))
	for s, fs := range ports {
		out[s] = make([][]bool, len(pool))
		for p, templates := range pool {
			out[s][p] = make([]bool, len(templates))
			for j, attrs := range templates {
				n := message.Notification{Attrs: attrs}
				for _, f := range fs {
					if f.Matches(n) {
						out[s][p][j] = true
						break
					}
				}
			}
		}
	}
	return out
}

// attrs returns note i of publisher p. The returned map is the template
// itself with "k" rewritten: Port.Publish copies it synchronously, and
// each publisher's templates are touched by that publisher's goroutine
// only.
func (in *inputs) attrs(p, i int) map[string]message.Value {
	t := in.pool[p][i%poolSize]
	t["k"] = message.Int(int64(i))
	return t
}

// note is attrs as a standalone notification with the identity the live
// port would assign (sequence numbers start at 1), for the layer timings.
func (in *inputs) note(p, i int) message.Notification {
	n := message.NewNotification(in.attrs(p, i))
	n.ID = message.NotificationID{Publisher: pubID(p), Seq: uint64(i + 1)}
	return n
}

// due reports whether note i of publisher p must reach port s.
func (in *inputs) due(s, p, i int) bool { return in.matches[s][p][i%poolSize] }

func pubID(p int) message.NodeID { return message.NodeID(fmt.Sprintf("pub%d", p)) }
func subID(s int) message.NodeID { return message.NodeID(fmt.Sprintf("sub%d", s)) }

// graphOf is the workload's broker graph: a 3-broker line (publisher's
// border, pure transit broker, subscriber's border), a 4-ring routed as a
// mesh, the same line again, and the simulator's 4×4 grid.
func graphOf(workload string) *movement.Graph {
	switch workload {
	case wlMesh:
		return movement.Ring(4)
	case wlSim:
		return movement.Grid(simGridSide, simGridSide)
	}
	return movement.Line(3)
}

// placement says where the workload's publishers and subscriber ports
// attach (the roaming subscriber: where it starts).
func placement(in *inputs) (pubAt, subAt []message.NodeID) {
	switch in.workload {
	case wlMesh:
		return []message.NodeID{"B1", "B3"}, []message.NodeID{"B0", "B2"} // opposite corners
	case wlRoaming:
		return []message.NodeID{"B0"}, []message.NodeID{roamCycle[0]}
	case wlSim:
		// One stream entering at the first broker, mobiles spread round the
		// grid: every note crosses several brokers on the way out.
		for s := range in.ports {
			subAt = append(subAt, message.NodeID(fmt.Sprintf("B%d", (s*7)%simBrokers)))
		}
		return []message.NodeID{"B0"}, subAt
	}
	return []message.NodeID{"B0"}, []message.NodeID{"B2"}
}
