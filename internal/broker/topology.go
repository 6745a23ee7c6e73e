package broker

import (
	"fmt"

	"rebeca/internal/message"
)

// Topology describes the broker overlay as an edge list. The graph must be
// connected (Validate); it may have cycles, since brokers route on the
// spanning tree they elect over it (§2's acyclic graph, see mesh.go).
type Topology struct {
	Edges [][2]message.NodeID
}

// Nodes returns all broker IDs mentioned by the topology, sorted.
func (t Topology) Nodes() []message.NodeID {
	seen := make(map[message.NodeID]bool)
	var out []message.NodeID
	for _, e := range t.Edges {
		for _, n := range e {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	sortNodeIDs(out)
	return out
}

// Adjacency returns the neighbor map.
func (t Topology) Adjacency() map[message.NodeID][]message.NodeID {
	adj := make(map[message.NodeID][]message.NodeID)
	for _, e := range t.Edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	for _, ns := range adj {
		sortNodeIDs(ns)
	}
	return adj
}

// Validate checks that the overlay is connected. Cycles are legal: the
// redundant edges become failover paths for the elected spanning tree.
func (t Topology) Validate() error {
	nodes := t.Nodes()
	if len(nodes) == 0 {
		return fmt.Errorf("broker: empty topology")
	}
	adj := t.Adjacency()
	seen := map[message.NodeID]bool{nodes[0]: true}
	queue := []message.NodeID{nodes[0]}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, n := range adj[cur] {
			if !seen[n] {
				seen[n] = true
				queue = append(queue, n)
			}
		}
	}
	if len(seen) != len(nodes) {
		return fmt.Errorf("broker: overlay not connected (%d of %d reachable)", len(seen), len(nodes))
	}
	return nil
}

// NextHops computes, for every broker, the neighbor on the BFS path toward
// every destination — on a tree the unique path; the unicast routing table
// brokers start from until they elect theirs. O(n²) BFS, fine for
// experiment-scale overlays.
func (t Topology) NextHops() map[message.NodeID]map[message.NodeID]message.NodeID {
	adj := t.Adjacency()
	nodes := t.Nodes()
	out := make(map[message.NodeID]map[message.NodeID]message.NodeID, len(nodes))
	for _, src := range nodes {
		hops := make(map[message.NodeID]message.NodeID)
		// BFS from src; first hop toward each discovered node.
		type qe struct{ node, first message.NodeID }
		seen := map[message.NodeID]bool{src: true}
		var queue []qe
		for _, n := range adj[src] {
			seen[n] = true
			queue = append(queue, qe{node: n, first: n})
		}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			hops[cur.node] = cur.first
			for _, n := range adj[cur.node] {
				if !seen[n] {
					seen[n] = true
					queue = append(queue, qe{node: n, first: cur.first})
				}
			}
		}
		out[src] = hops
	}
	return out
}

// PathLen returns the number of overlay hops between two brokers, or -1
// when unreachable.
func (t Topology) PathLen(a, b message.NodeID) int {
	if a == b {
		return 0
	}
	adj := t.Adjacency()
	dist := map[message.NodeID]int{a: 0}
	queue := []message.NodeID{a}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, n := range adj[cur] {
			if _, ok := dist[n]; ok {
				continue
			}
			dist[n] = dist[cur] + 1
			if n == b {
				return dist[n]
			}
			queue = append(queue, n)
		}
	}
	return -1
}

// LineTopology builds a path overlay over the given brokers.
func LineTopology(nodes []message.NodeID) Topology {
	var t Topology
	for i := 1; i < len(nodes); i++ {
		t.Edges = append(t.Edges, [2]message.NodeID{nodes[i-1], nodes[i]})
	}
	return t
}
