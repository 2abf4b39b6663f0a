package qnet

import (
	"fmt"
	"math"
	"sort"
)

// Route is one loop-free path through the unified topology.
type Route struct {
	// Nodes is the site sequence, endpoints included. Interior switches
	// of an untrusted light path are collapsed into their edge and do
	// not appear — they never hold key.
	Nodes []string
	hops  []*Edge
}

// kDisjointPaths computes k pairwise vertex-disjoint src->dst paths of
// minimum total weight over the given edges — Bhandari's algorithm
// with node splitting. Every node v becomes v_in -> v_out joined by a
// zero-weight arc, so interior-node capacity is 1 and the successive
// shortest paths are vertex-disjoint, not merely edge-disjoint (two
// stripes through one relay would hand that relay two shares). Each
// round runs Bellman-Ford (reversed arcs carry negative weight), then
// reverses the path's arcs in the residual graph; overlapping arcs
// cancel, and the surviving arc set decomposes into the k paths.
//
// Parallel edges between the same pair of sites (a trusted relay link
// and an untrusted light path, say) are distinct arcs and may carry
// distinct paths.
func kDisjointPaths(edges []*Edge, weight func(*Edge) float64, src, dst string, k int) ([]Route, error) {
	if k < 1 {
		return nil, fmt.Errorf("qnet: need k >= 1, got %d", k)
	}
	// Deterministic node numbering: sorted names. v_in = 2i, v_out = 2i+1.
	nameSet := map[string]bool{src: true, dst: true}
	for _, e := range edges {
		nameSet[e.A] = true
		nameSet[e.B] = true
	}
	names := make([]string, 0, len(nameSet))
	for v := range nameSet {
		names = append(names, v)
	}
	sort.Strings(names)
	id := make(map[string]int, len(names))
	for i, v := range names {
		id[v] = i
	}
	in := func(v string) int { return 2 * id[v] }
	out := func(v string) int { return 2*id[v] + 1 }
	numV := 2 * len(names)

	type arc struct {
		from, to int
		w        float64
		e        *Edge // nil for node-split arcs
		active   bool
		inSol    bool
		rev      *arc // residual counterpart (orig on reverse arcs)
		isRev    bool
	}
	var arcs []*arc
	add := func(from, to int, w float64, e *Edge) *arc {
		fwd := &arc{from: from, to: to, w: w, e: e, active: true}
		bwd := &arc{from: to, to: from, w: -w, e: e, isRev: true, rev: fwd}
		fwd.rev = bwd
		arcs = append(arcs, fwd, bwd)
		return fwd
	}
	for _, v := range names {
		add(in(v), out(v), 0, nil)
	}
	for _, e := range edges {
		w := weight(e)
		add(out(e.A), in(e.B), w, e)
		add(out(e.B), in(e.A), w, e)
	}

	source, target := out(src), in(dst)
	dist := make([]float64, numV)
	prev := make([]*arc, numV)
	for round := 0; round < k; round++ {
		for i := range dist {
			dist[i] = math.Inf(1)
			prev[i] = nil
		}
		dist[source] = 0
		for iter := 0; iter < numV; iter++ {
			changed := false
			for _, a := range arcs {
				if !a.active || math.IsInf(dist[a.from], 1) {
					continue
				}
				if d := dist[a.from] + a.w; d < dist[a.to]-1e-12 {
					dist[a.to] = d
					prev[a.to] = a
					changed = true
				}
			}
			if !changed {
				break
			}
		}
		if prev[target] == nil && target != source {
			return nil, fmt.Errorf("%w: found %d of %d between %s and %s",
				ErrDisjoint, round, k, src, dst)
		}
		// Reverse the path's arcs in the residual graph.
		for a := prev[target]; a != nil; a = prev[a.from] {
			a.active = false
			a.rev.active = true
			if a.isRev {
				a.rev.inSol = false // canceled an earlier path's arc
			} else {
				a.inSol = true
			}
		}
	}

	// Decompose the solution arcs into k paths. Vertex splitting means
	// every interior node has exactly one solution arc in and out, so
	// the walk is forced; ties at src_out are broken by arc creation
	// order (node split arcs first, then edges in registration order),
	// which is deterministic.
	outArcs := make(map[int][]*arc)
	for _, a := range arcs {
		if !a.isRev && a.inSol {
			outArcs[a.from] = append(outArcs[a.from], a)
		}
	}
	routes := make([]Route, 0, k)
	for p := 0; p < k; p++ {
		r := Route{Nodes: []string{src}}
		cur := source
		for cur != target {
			next := outArcs[cur]
			if len(next) == 0 {
				return nil, fmt.Errorf("qnet: internal: path decomposition stuck at %s", names[cur/2])
			}
			a := next[0]
			outArcs[cur] = next[1:]
			if a.e != nil {
				r.hops = append(r.hops, a.e)
				r.Nodes = append(r.Nodes, names[a.to/2])
			}
			cur = a.to
		}
		routes = append(routes, r)
	}
	return routes, nil
}
