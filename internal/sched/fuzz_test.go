package sched

import (
	"testing"

	"schedcomp/internal/dag"
)

// byteAt reads raw cyclically so any input length drives the whole
// schedule construction.
func byteAt(raw []byte, i int) byte {
	if len(raw) == 0 {
		return 0
	}
	return raw[i%len(raw)]
}

// FuzzValidate builds a small DAG and a schedule over it from fuzz
// input, then requires Validate to reach the same verdict as the
// sort-based oracle, and ValidateWith to classify it, without ever
// panicking. Half the inputs are arbitrary (usually bogus) schedules
// with corrupted node IDs, negative processors and times, truncated
// ByNode slices; the other half are built schedules with one
// assignment nudged, so valid and near-valid inputs are covered too.
// NumProcs ranges over int32, far above the node count.
func FuzzValidate(f *testing.F) {
	f.Add(uint8(4), uint64(0b1011), int32(2), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(uint8(0), uint64(0), int32(0), []byte{})
	f.Add(uint8(7), ^uint64(0), int32(-3), []byte{255, 7, 128, 9, 0, 64})
	f.Add(uint8(3), uint64(1), int32(127), []byte{5})
	f.Add(uint8(6), uint64(0b110101), int32(1<<30), []byte{2, 9, 4, 33, 1, 70, 8})
	f.Add(uint8(7), uint64(0x5a5a), int32(3), []byte{1, 3, 5, 7, 9, 11, 13})

	f.Fuzz(func(t *testing.T, nNodes uint8, edgeBits uint64, procs int32, raw []byte) {
		n := int(nNodes % 8)
		g := dag.New("fuzz")
		for i := 0; i < n; i++ {
			g.AddNode(int64(1 + byteAt(raw, i)%16))
		}
		bit := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if edgeBits>>(uint(bit)%64)&1 == 1 {
					g.MustAddEdge(dag.NodeID(i), dag.NodeID(j), int64(byteAt(raw, bit)%8))
				}
				bit++
			}
		}

		var s *Schedule
		if n > 0 && byteAt(raw, 0)%2 == 1 {
			s = nudgedSchedule(t, g, raw)
			s.NumProcs = max(s.NumProcs, int(procs))
		} else {
			s = &Schedule{Graph: g, NumProcs: int(procs), ByNode: make([]Assignment, n)}
			for i := range s.ByNode {
				node := dag.NodeID(i)
				if byteAt(raw, 3*i)%7 == 0 {
					node = dag.NodeID(int8(byteAt(raw, 3*i+1))) // corrupt the node ID
				}
				start := int64(int8(byteAt(raw, 3*i+1)))
				s.ByNode[i] = Assignment{
					Node:   node,
					Proc:   int(int8(byteAt(raw, 3*i))),
					Start:  start,
					Finish: start + int64(int8(byteAt(raw, 3*i+2))),
				}
			}
			if n > 0 && byteAt(raw, n)%5 == 0 {
				s.ByNode = s.ByNode[:n-1] // schedule that does not cover the graph
			}
			s.Makespan = int64(int8(byteAt(raw, n+1)))
		}

		err, oracleErr := s.Validate(), s.oracleValidate()
		if (err == nil) != (oracleErr == nil) {
			t.Fatalf("Validate = %v, oracle = %v", err, oracleErr)
		}
		_ = s.ValidateWith(nil)
		_ = s.ValidateWith(ringDelay)
	})
}

// nudgedSchedule builds g (whose edges run from lower to higher IDs)
// on processors drawn from raw in ID order, then moves one assignment
// in time and to another processor.
func nudgedSchedule(t *testing.T, g *dag.Graph, raw []byte) *Schedule {
	n := g.NumNodes()
	pl := NewPlacement(n)
	for v := 0; v < n; v++ {
		pl.Assign(dag.NodeID(v), int(byteAt(raw, v+1)%4))
	}
	s, err := Build(g, pl)
	if err != nil {
		t.Fatalf("building an ID-ordered placement: %v", err)
	}
	a := &s.ByNode[int(byteAt(raw, 1))%n]
	d := int64(int8(byteAt(raw, 2))) % 8
	a.Start += d
	a.Finish += d
	a.Proc = int(byteAt(raw, 3)) % (s.NumProcs + 1)
	s.Makespan = max(s.Makespan, a.Finish)
	return s
}
