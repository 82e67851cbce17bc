//go:build !race

package arena

// Allocation pins. The race detector makes sync.Pool drop items at
// random, so a 0-alloc pin cannot hold there; the file is excluded
// from race builds and runs under plain go test.

import "testing"

func TestAllocFreeSteadyState(t *testing.T) {
	// Warm the pool so backings exist.
	s := Get()
	_ = s.Int64s(256)
	_ = s.Bools(256)
	_ = s.NodeIDs(256)
	s.Release()

	allocs := testing.AllocsPerRun(100, func() {
		sc := Get()
		_ = sc.Int64s(256)
		_ = sc.Bools(256)
		_ = sc.NodeIDs(256)
		sc.Release()
	})
	if allocs > 0 {
		t.Fatalf("steady-state Get/carve/Release allocates %.1f times per run, want 0", allocs)
	}
}
