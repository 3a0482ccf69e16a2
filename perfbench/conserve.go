package main

import (
	"fmt"
	"sort"
	"strings"

	"netkit/core"
	"netkit/router"
)

// Conservation: at the end of a run the benchmark walks the stats tree the
// program exports (netkit.Meta(c).Stats().Tree()) and checks two laws.
//
//   - Every element: in == out + dropped + errs.
//   - Every binding: what the upstream components sent equals what the
//     downstream components received. Where bindings fan out (classifier
//     ports) or fan in (ports meeting again), the law holds over each
//     connected group of bindings: the sum of the upstream outs equals the
//     sum of the downstream ins.
//
// An isolated component reports IPC counters instead of element counters;
// it is read as in = ipc_tx_frames + ipc_dropped, out = ipc_emitted,
// dropped = ipc_dropped + ipc_lost, errs = ipc_remote_failed.

// counts is one element's counters.
type counts struct{ in, out, dropped, errs float64 }

// edge is one binding of a capsule, by component instance name.
type edge struct{ from, to string }

// flatten indexes every node of a stats tree by name.
func flatten(n core.StatNode, into map[string]core.StatNode) {
	into[n.Name] = n
	for _, c := range n.Children {
		flatten(c, into)
	}
}

func statValue(n core.StatNode, name string) (float64, bool) {
	s, ok := n.Stat(name)
	return s.Value, ok
}

// elementCounts reads a node's counters; ok is false for nodes that carry
// none (the sink has only an intake).
func elementCounts(n core.StatNode) (counts, bool) {
	if tx, ok := statValue(n, "ipc_tx_frames"); ok {
		dropped, _ := statValue(n, "ipc_dropped")
		emitted, _ := statValue(n, "ipc_emitted")
		lost, _ := statValue(n, "ipc_lost")
		failed, _ := statValue(n, "ipc_remote_failed")
		return counts{in: tx + dropped, out: emitted, dropped: dropped + lost, errs: failed}, true
	}
	in, okIn := statValue(n, "packets_in")
	out, okOut := statValue(n, "packets_out")
	if !okIn || !okOut {
		return counts{in: in}, false
	}
	dropped, _ := statValue(n, "packets_dropped")
	errs, _ := statValue(n, "errors")
	return counts{in, out, dropped, errs}, true
}

// conservation checks the tree against the bindings. retired adds the
// final counters of hot-swapped-out instances to their replacements. It
// returns one line per violation and the number of checks made.
func conservation(tree core.StatNode, edges []edge, retired map[string]router.ElementStats) (violations []string, checks int) {
	nodes := map[string]core.StatNode{}
	flatten(tree, nodes)
	get := func(name string) (counts, bool, bool) {
		n, ok := nodes[name]
		if !ok {
			return counts{}, false, false
		}
		c, full := elementCounts(n)
		if r, ok := retired[name]; ok {
			c.in += float64(r.In)
			c.out += float64(r.Out)
			c.dropped += float64(r.Dropped)
			c.errs += float64(r.Errors)
		}
		return c, full, true
	}
	names := make([]string, 0, len(nodes))
	for name := range nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c, full, _ := get(name)
		if !full {
			continue
		}
		checks++
		if c.in != c.out+c.dropped+c.errs {
			violations = append(violations, fmt.Sprintf("element %s: in %.0f != out %.0f + dropped %.0f + errs %.0f",
				name, c.in, c.out, c.dropped, c.errs))
		}
	}
	// Union-find over upstream ("u:name") and downstream ("d:name") roles.
	parent := map[string]string{}
	var find func(string) string
	find = func(x string) string {
		if parent[x] == "" || parent[x] == x {
			parent[x] = x
			return x
		}
		r := find(parent[x])
		parent[x] = r
		return r
	}
	for _, e := range edges {
		parent[find("u:"+e.from)] = find("d:" + e.to)
	}
	groups := map[string][]string{}
	for x := range parent {
		r := find(x)
		groups[r] = append(groups[r], x)
	}
	roots := make([]string, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Strings(roots)
	for _, r := range roots {
		members := groups[r]
		sort.Strings(members)
		var up, down float64
		known := true
		for _, m := range members {
			c, full, ok := get(m[2:])
			switch {
			case !ok:
				known = false
			case strings.HasPrefix(m, "u:"):
				if !full {
					known = false
				}
				up += c.out
			default:
				down += c.in
			}
		}
		if !known {
			continue
		}
		checks++
		if up != down {
			violations = append(violations, fmt.Sprintf("bindings %v: upstream out %.0f != downstream in %.0f",
				members, up, down))
		}
	}
	return violations, checks
}

// planeEdges lists the bindings of the plane's capsule and, for a sharded
// plane, of its inner capsule.
func planeEdges(p *plane) []edge {
	var out []edge
	for _, e := range p.sys.Meta().Architecture().Snapshot().Edges {
		out = append(out, edge{e.From, e.To})
	}
	if p.sc != nil {
		for _, e := range p.sc.Inner().Snapshot().Edges {
			out = append(out, edge{e.From, e.To})
		}
	}
	return out
}
