//go:build !race

package heuristics_test

// Wall-clock bounds only: the race detector slows these loops several
// times over, so the file is excluded from race builds.

import (
	"context"
	"testing"
	"time"

	"schedcomp/internal/dag"
	"schedcomp/internal/heuristics"
)

// TestWideIsolatedNodesMeetDeadline is the hostile-shape regression
// test for per-task scans over all processors: 20 000 isolated nodes
// put EZ and HU on 20 000 singleton processors, where such a scan in
// the timing builder or in HU's processor pick takes seconds. Both
// must return a valid schedule before a 500 ms deadline.
func TestWideIsolatedNodesMeetDeadline(t *testing.T) {
	const n = 20000
	g := dag.New("isolated")
	for i := 0; i < n; i++ {
		g.AddNode(int64(1 + i%7))
	}
	for _, name := range []string{"EZ", "HU"} {
		s, err := heuristics.New(name)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
		t0 := time.Now()
		sc, err := heuristics.RunContext(ctx, s, g)
		elapsed := time.Since(t0)
		cancel()
		if err != nil {
			t.Fatalf("%s: %v after %v", name, err, elapsed)
		}
		if sc.NumProcs != n {
			t.Errorf("%s: %d processors, want one per isolated node (%d)", name, sc.NumProcs, n)
		}
		t.Logf("%s: %v", name, elapsed)
	}
}
