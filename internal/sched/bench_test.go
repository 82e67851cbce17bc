package sched

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchShapes are the placement sizes the timing layer sees: a GA
// chromosome decode, a corpus graph under list scheduling, and the
// same graph spread wide by a clustering heuristic.
var benchShapes = []struct{ nodes, procs int }{{11, 3}, {80, 8}, {80, 40}}

func benchPlacement(nodes, procs int) (*Schedule, *Placement) {
	rng := rand.New(rand.NewSource(int64(nodes*1000 + procs)))
	g := randomDAG(rng, nodes, 0.1)
	pl := oraclePlacement(rng, g, procs, false)
	s, err := Build(g, pl)
	if err != nil {
		panic(err)
	}
	return s, pl
}

func BenchmarkBuild(b *testing.B) {
	for _, sh := range benchShapes {
		s, pl := benchPlacement(sh.nodes, sh.procs)
		b.Run(fmt.Sprintf("%dx%d", sh.nodes, sh.procs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Build(s.Graph, pl); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkValidate(b *testing.B) {
	for _, sh := range benchShapes {
		s, _ := benchPlacement(sh.nodes, sh.procs)
		b.Run(fmt.Sprintf("%dx%d", sh.nodes, sh.procs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := s.Validate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
