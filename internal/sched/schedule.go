package sched

import (
	"fmt"
	"math/bits"
	"sort"

	"schedcomp/internal/arena"
	"schedcomp/internal/dag"
)

// Assignment records where and when one task executes.
type Assignment struct {
	Node   dag.NodeID
	Proc   int
	Start  int64
	Finish int64
}

// Schedule is a fully timed assignment of a graph's tasks to
// processors.
type Schedule struct {
	Graph *dag.Graph
	// ByNode[n] is the assignment of node n.
	ByNode []Assignment
	// NumProcs is the number of processors used (dense 0..NumProcs-1).
	NumProcs int
	// Makespan is the parallel time: the maximum finish time.
	Makespan int64
}

// ParallelTime returns the schedule makespan, the paper's objective.
func (s *Schedule) ParallelTime() int64 { return s.Makespan }

// Speedup returns serial time / parallel time. A value below 1 means
// the schedule retards execution relative to one processor.
func (s *Schedule) Speedup() float64 {
	if s.Makespan == 0 {
		return 0
	}
	return float64(s.Graph.SerialTime()) / float64(s.Makespan)
}

// Efficiency returns Speedup / NumProcs: the average fraction of time
// the used processors are busy doing useful work.
func (s *Schedule) Efficiency() float64 {
	if s.NumProcs == 0 {
		return 0
	}
	return s.Speedup() / float64(s.NumProcs)
}

// ProcTasks returns the assignments of processor p sorted by start
// time.
func (s *Schedule) ProcTasks(p int) []Assignment {
	var out []Assignment
	for _, a := range s.ByNode {
		if a.Proc == p {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Validate checks the schedule against the paper's execution model;
// it is ValidateWith(UniformDelay).
func (s *Schedule) Validate() error { return s.ValidateWith(UniformDelay) }

// ValidateWith checks the schedule under the delay model (nil means
// UniformDelay):
//
//  1. every node is assigned exactly once, on a processor in
//     [0,NumProcs), at a non-negative start, with Finish = Start +
//     weight and Finish within the makespan;
//  2. tasks on the same processor do not overlap;
//  3. every task starts no earlier than each predecessor's finish plus
//     the delay of the edge between their processors.
func (s *Schedule) ValidateWith(delay DelayFunc) error {
	if delay == nil {
		delay = UniformDelay
	}
	g := s.Graph
	n := g.NumNodes()
	if len(s.ByNode) != n {
		return fmt.Errorf("sched: schedule covers %d nodes, graph has %d", len(s.ByNode), n)
	}
	var maxStart int64
	for i, a := range s.ByNode {
		if int(a.Node) != i {
			return fmt.Errorf("sched: ByNode[%d] holds node %d", i, a.Node)
		}
		if a.Proc < 0 || a.Proc >= s.NumProcs {
			return fmt.Errorf("sched: node %d on processor %d outside [0,%d)", i, a.Proc, s.NumProcs)
		}
		if a.Start < 0 {
			return fmt.Errorf("sched: node %d starts at negative time %d", i, a.Start)
		}
		if a.Finish != a.Start+g.Weight(a.Node) {
			return fmt.Errorf("sched: node %d finish %d != start %d + weight %d",
				i, a.Finish, a.Start, g.Weight(a.Node))
		}
		if a.Finish > s.Makespan {
			return fmt.Errorf("sched: node %d finishes at %d beyond makespan %d", i, a.Finish, s.Makespan)
		}
		maxStart = max(maxStart, a.Start)
	}
	if err := s.checkOverlap(maxStart); err != nil {
		return err
	}
	// Precedence + communication.
	csr := g.CSR()
	for v := 0; v < n; v++ {
		av := s.ByNode[v]
		preds, ws := csr.Preds(dag.NodeID(v))
		for j, u := range preds {
			ap := s.ByNode[u]
			ready := ap.Finish + delay(ap.Proc, av.Proc, ws[j])
			if av.Start < ready {
				return fmt.Errorf("sched: node %d starts at %d before data from %d ready at %d",
					v, av.Start, u, ready)
			}
		}
	}
	return nil
}

// checkOverlap reports the first pair of overlapping tasks on one
// processor, in (processor, start) order, for a schedule whose
// processors and start times Validate has already range-checked.
//
// The node indices are ordered by an LSD radix sort in arena scratch:
// stable counting passes over the digits of the composite key
// (processor, start), with a digit base 2^width > n. Scratch stays O(n)
// however large NumProcs is, the worst case is O(n) per 1+log2(n) key
// bits, and no comparison sort or copy of the assignments is involved.
//
//lint:boundedidx idx holds a permutation of [0,n), the index range of ByNode
func (s *Schedule) checkOverlap(maxStart int64) error {
	n := len(s.ByNode)
	if n == 0 {
		return nil
	}
	scratch := arena.Get()
	defer scratch.Release()
	width := bits.Len(uint(n))
	idx, tmp := scratch.Int32s(n), scratch.Int32s(n)
	key := scratch.Int64s(n)
	count := scratch.Ints(1 << width)
	for i := range idx {
		idx[i] = int32(i)
	}
	startBits, procBits := bits.Len64(uint64(maxStart)), bits.Len(uint(s.NumProcs-1))
	if startBits+procBits < 64 {
		for i, a := range s.ByNode {
			key[i] = int64(a.Proc)<<startBits | a.Start
		}
		idx, _ = radixSort(idx, tmp, key, count, width, startBits+procBits)
	} else {
		// The composite key overflows: sort by start, then stably by
		// processor.
		for i, a := range s.ByNode {
			key[i] = a.Start
		}
		idx, tmp = radixSort(idx, tmp, key, count, width, startBits)
		for i, a := range s.ByNode {
			key[i] = int64(a.Proc)
		}
		idx, _ = radixSort(idx, tmp, key, count, width, procBits)
	}
	for i := 1; i < n; i++ {
		prev, cur := s.ByNode[idx[i-1]], s.ByNode[idx[i]]
		if cur.Proc == prev.Proc && cur.Start < prev.Finish {
			return fmt.Errorf("sched: processor %d overlap: node %d [%d,%d) vs node %d [%d,%d)",
				cur.Proc, prev.Node, prev.Start, prev.Finish,
				cur.Node, cur.Start, cur.Finish)
		}
	}
	return nil
}

// radixSort stably sorts the node indices in idx by the low keyBits
// bits of key[v], width bits per counting pass (len(count) == 1<<width),
// using tmp as the second buffer. It returns the sorted slice and the
// spare one.
//
//lint:boundedidx digits are masked below len(count), prefix sums stay below len(idx) == len(tmp)
func radixSort(idx, tmp []int32, key []int64, count []int, width, keyBits int) (sorted, spare []int32) {
	mask := int64(len(count) - 1)
	for shift := 0; shift < keyBits; shift += width {
		clear(count)
		for _, v := range idx {
			count[key[v]>>shift&mask]++
		}
		sum := 0
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for _, v := range idx {
			d := key[v] >> shift & mask
			tmp[count[d]] = v
			count[d]++
		}
		idx, tmp = tmp, idx
	}
	return idx, tmp
}
