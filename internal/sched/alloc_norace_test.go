//go:build !race

package sched

// Allocation pins. The race detector makes the arena's sync.Pool drop
// items at random, so 0-alloc pins cannot hold there; the file is
// excluded from race builds and runs under plain go test.

import (
	"math/rand"
	"testing"
)

// TestValidateAllocFree pins Validate's steady state at zero
// allocations: its scratch comes from the pooled arena.
func TestValidateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	g := randomDAG(rng, 80, 0.1)
	s, err := Build(g, oraclePlacement(rng, g, 8, false))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = s.Validate() }); allocs > 0 {
		t.Fatalf("Validate allocates %.1f times per run, want 0", allocs)
	}
}
