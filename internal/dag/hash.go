package dag

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"sort"
)

// Canonical content hashing.
//
// A Fingerprint identifies a graph by structure and weights alone:
// two graphs receive the same fingerprint exactly when one can be
// turned into the other by renaming nodes (the graph name, node IDs
// and edge insertion order are all invisible to the hash; every node
// and edge weight is load-bearing). The construction is the classic
// iterated Weisfeiler–Leman (WL) colour refinement run over the CSR
// view, followed by a deterministic individualization cascade that
// turns the stable colour partition into a total node order, and a
// SHA-256 over the canonical wire encoding written in that order.
//
//   - Round 0 colours a node by its execution weight.
//   - Each round rehashes a node's colour with the sorted multisets of
//     (edge weight, neighbour colour) pairs over its successors and
//     predecessors; rounds repeat until the partition stops refining.
//   - While colour classes with more than one node remain, the
//     smallest class is split: each member is trial-individualized and
//     refined, and the member whose refined colour multiset is
//     lexicographically smallest wins. Automorphic members tie, and
//     picking any of them yields the identical canonical form.
//   - Any still-tied nodes (possible only for WL-indistinguishable,
//     non-automorphic nodes — pathological for weighted DAGs) are
//     ordered by original ID. Such graphs may hash differently under
//     relabeling, but never collide with a different graph: the
//     canonical encoding always describes the graph exactly, so
//     consumers that compare encodings (internal/schedcache) stay
//     sound even there.
//
// Like every other memoized analysis, the canonical form is computed
// at most once per graph revision and shared; CanonicalPerm and
// CanonicalEncoding return views the caller must treat as read-only.

// Fingerprint is the canonical content hash of a graph: SHA-256 over
// the canonical encoding.
type Fingerprint [32]byte

// String returns the fingerprint in hex.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// canonInfo is the memoized canonical form of one graph revision.
type canonInfo struct {
	hash Fingerprint
	perm []NodeID // perm[v] = v's index in canonical order
	enc  []byte   // canonical wire encoding
}

// CanonicalHash returns the graph's canonical content hash. The result
// is memoized per revision.
func (g *Graph) CanonicalHash() Fingerprint {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.canonicalLocked().hash
}

// CanonicalPerm returns the canonical relabeling: node v of this graph
// is node CanonicalPerm()[v] of the canonical form. The slice is a
// shared cache view; callers must not mutate it.
func (g *Graph) CanonicalPerm() []NodeID {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.canonicalLocked().perm
}

// CanonicalEncoding returns the canonical wire encoding the hash is
// computed over. Two graphs have equal encodings exactly when they are
// equal up to node renaming, which makes the encoding the collision-
// proof identity behind the fingerprint. The slice is a shared cache
// view; callers must not mutate it.
func (g *Graph) CanonicalEncoding() []byte {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.canonicalLocked().enc
}

// CanonicalClone returns a fresh copy of the graph relabeled into
// canonical index space (node v of the receiver becomes node
// CanonicalPerm()[v] of the clone), with an empty name and edges
// inserted in canonical order. Any two graphs with equal canonical
// encodings produce byte-identical clones, so a deterministic
// algorithm run on the clone gives the same answer no matter which
// member of the isomorphism class it came from.
func (g *Graph) CanonicalClone() *Graph {
	g.mu.Lock()
	ci := g.canonicalLocked()
	perm := ci.perm
	n := len(g.weights)
	weights := make([]int64, n)
	for v, w := range g.weights {
		weights[perm[v]] = w
	}
	edges := make([]Edge, 0, g.edges)
	for u := range g.succ {
		for _, a := range g.succ[u] {
			edges = append(edges, Edge{From: perm[u], To: perm[a.To], Weight: a.Weight})
		}
	}
	g.mu.Unlock()

	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	c := New("")
	for _, w := range weights {
		c.AddNode(w)
	}
	for _, e := range edges {
		c.addEdgeUnchecked(e.From, e.To, e.Weight)
	}
	return c
}

// canonicalLocked returns the memoized canonical form, computing it on
// first use. The graph's mutex must be held.
func (g *Graph) canonicalLocked() *canonInfo {
	c := g.ensureCache()
	ccCanon.count(c.canon != nil)
	if c.canon == nil {
		c.canon = g.computeCanonical()
	}
	return c.canon
}

// Mixing constants and stream tags. The exact values are arbitrary;
// changing any of them changes every fingerprint, so they are fixed
// for the life of the format version encoded in canonMagic.
const (
	canonMagic = "schedcanon\x01"

	canonSeedWeight = 0x9e3779b97f4a7c15
	canonSeedRound  = 0xbf58476d1ce4e5b9
	canonSeedSep    = 0x94d049bb133111eb
	canonSeedIndiv  = 0x2545f4914f6cdd1d
)

// mix64 is the splitmix64 finalizer: a cheap, well-distributed 64-bit
// mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// mix2 combines two words order-sensitively.
func mix2(a, b uint64) uint64 {
	return mix64(a ^ (b*0x9e3779b97f4a7c15 + 0x165667b19e3779f9))
}

// colorArc is one (neighbour colour, edge weight) pair of a node's
// refinement signature.
type colorArc struct {
	c uint64
	w int64
}

// refiner holds the scratch state of one canonicalization.
type refiner struct {
	csr    *CSR
	colors []uint64
	next   []uint64
	pairs  []colorArc
	sorted []uint64 // scratch for countDistinct / multiset keys
}

// countDistinct returns the number of distinct values in colors,
// leaving the sorted copy in r.sorted.
func (r *refiner) countDistinct(colors []uint64) int {
	r.sorted = append(r.sorted[:0], colors...)
	slices.Sort(r.sorted)
	d := 0
	for i, c := range r.sorted {
		if i == 0 || c != r.sorted[i-1] {
			d++
		}
	}
	return d
}

// round computes one WL refinement round from colors into next.
func (r *refiner) round(colors, next []uint64) {
	for v := range colors {
		h := mix2(canonSeedRound, colors[v])
		sTo, sW := r.csr.Succs(NodeID(v))
		h = r.mixArcs(h, colors, sTo, sW)
		h = mix2(h, canonSeedSep)
		pTo, pW := r.csr.Preds(NodeID(v))
		h = r.mixArcs(h, colors, pTo, pW)
		next[v] = h
	}
}

// mixArcs folds one adjacency direction's sorted (weight, colour)
// multiset into h.
func (r *refiner) mixArcs(h uint64, colors []uint64, to []NodeID, w []int64) uint64 {
	pairs := r.pairs[:0]
	for i, u := range to {
		pairs = append(pairs, colorArc{c: colors[u], w: w[i]})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].c != pairs[j].c {
			return pairs[i].c < pairs[j].c
		}
		return pairs[i].w < pairs[j].w
	})
	for _, p := range pairs {
		h = mix2(h, mix2(uint64(p.w), p.c))
	}
	r.pairs = pairs
	return h
}

// refine runs WL rounds on colors until the partition stops refining,
// returning the final number of distinct colours. distinct must be the
// current count for colors.
func (r *refiner) refine(colors []uint64, distinct int) int {
	n := len(colors)
	for distinct < n {
		r.round(colors, r.next)
		nd := r.countDistinct(r.next)
		if nd <= distinct {
			return distinct // stable: a round that fails to refine never will
		}
		copy(colors, r.next)
		distinct = nd
	}
	return distinct
}

// computeCanonical runs refinement, individualization, and encoding.
// The graph's mutex must be held.
func (g *Graph) computeCanonical() *canonInfo {
	n := len(g.weights)
	r := &refiner{
		csr:    g.csrLocked(),
		colors: make([]uint64, n),
		next:   make([]uint64, n),
	}
	for v, w := range g.weights {
		r.colors[v] = mix2(canonSeedWeight, uint64(w))
	}
	distinct := r.countDistinct(r.colors)
	distinct = r.refine(r.colors, distinct)

	// Individualization cascade: split the smallest ambiguous colour
	// class by trial-individualizing each member and keeping the
	// refinement with the lexicographically smallest colour multiset.
	// Ties between members mean they are automorphic (or WL-twins, see
	// the package comment): committing the first tied trial is then
	// canonical-form-preserving. The loop is cold — weighted DAG
	// corpora almost always refine to a discrete partition directly.
	for distinct < n {
		// Refresh r.sorted from the committed colours: refine leaves it
		// holding the colours of a discarded (stable) round otherwise.
		r.countDistinct(r.colors)
		target, ok := smallestAmbiguousColor(r.sorted)
		if !ok {
			break
		}
		var bestColors, bestKey []uint64
		for v := range r.colors {
			if r.colors[v] != target {
				continue
			}
			trial := append([]uint64(nil), r.colors...) //lint:coldpath individualization only runs on WL-ambiguous graphs
			trial[v] = mix2(canonSeedIndiv, trial[v])
			r.refine(trial, r.countDistinct(trial))
			key := append([]uint64(nil), trial...)                     //lint:coldpath individualization only runs on WL-ambiguous graphs
			slices.Sort(key)                                           //lint:outlined individualization only runs on WL-ambiguous graphs
			if bestColors == nil || slices.Compare(key, bestKey) < 0 { //lint:outlined individualization only runs on WL-ambiguous graphs
				bestColors, bestKey = trial, key
			}
		}
		copy(r.colors, bestColors)
		nd := r.countDistinct(r.colors)
		if nd <= distinct {
			break // no progress (hash collision); fall back to ID order
		}
		distinct = nd
	}

	// Total order: by colour, then (only for still-tied pathological
	// nodes) by original ID.
	byColor := make([]NodeID, n)
	for v := range byColor {
		byColor[v] = NodeID(v)
	}
	sort.Slice(byColor, func(i, j int) bool {
		a, b := byColor[i], byColor[j]
		if r.colors[a] != r.colors[b] {
			return r.colors[a] < r.colors[b]
		}
		return a < b
	})
	perm := make([]NodeID, n)
	for rank, v := range byColor {
		perm[v] = NodeID(rank)
	}

	enc := g.encodeCanonical(perm)
	return &canonInfo{hash: sha256.Sum256(enc), perm: perm, enc: enc}
}

// smallestAmbiguousColor returns the smallest colour value that labels
// more than one node, given the sorted colour slice.
func smallestAmbiguousColor(sorted []uint64) (uint64, bool) {
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return sorted[i], true
		}
	}
	return 0, false
}

// encodeCanonical writes the canonical wire form: magic, node count,
// node weights in canonical order, edge count, and the edge triples
// (from, to, weight) in canonical index space sorted by (from, to).
// The graph's mutex must be held.
func (g *Graph) encodeCanonical(perm []NodeID) []byte {
	n := len(g.weights)
	enc := make([]byte, 0, len(canonMagic)+10*(n+1)+30*g.edges)
	enc = append(enc, canonMagic...)
	enc = binary.AppendUvarint(enc, uint64(n))
	inv := make([]NodeID, n)
	for v, cv := range perm {
		inv[cv] = NodeID(v)
	}
	for _, v := range inv {
		enc = binary.AppendUvarint(enc, uint64(g.weights[v]))
	}
	type triple struct {
		from, to NodeID
		w        int64
	}
	edges := make([]triple, 0, g.edges)
	for u := range g.succ {
		for _, a := range g.succ[u] {
			edges = append(edges, triple{from: perm[u], to: perm[a.To], w: a.Weight})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].from != edges[j].from {
			return edges[i].from < edges[j].from
		}
		return edges[i].to < edges[j].to
	})
	enc = binary.AppendUvarint(enc, uint64(len(edges)))
	for _, e := range edges {
		enc = binary.AppendUvarint(enc, uint64(e.from))
		enc = binary.AppendUvarint(enc, uint64(e.to))
		enc = binary.AppendUvarint(enc, uint64(e.w))
	}
	return enc
}
