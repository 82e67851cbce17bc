package heuristics_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"schedcomp/internal/dag"
	"schedcomp/internal/gen"
	"schedcomp/internal/heuristics"
	"schedcomp/internal/heuristics/clans"
	"schedcomp/internal/heuristics/dcp"
	"schedcomp/internal/heuristics/dls"
	"schedcomp/internal/heuristics/etf"
	"schedcomp/internal/heuristics/hu"
	"schedcomp/internal/heuristics/mcp"
)

// knobGraphs returns 200 seeded generator graphs of 8–67 nodes across
// every anchor and granularity band.
func knobGraphs() []*dag.Graph {
	bands := gen.PaperBands()
	graphs := make([]*dag.Graph, 200)
	for i := range graphs {
		graphs[i] = gen.MustGenerate(gen.Params{
			Nodes:  8 + i*7%60,
			Anchor: 2 + i%4,
			WMin:   1 + int64(i%5),
			WMax:   20 + int64(i%7)*30,
			Gran:   bands[i%len(bands)],
		}, int64(1994+i))
	}
	return graphs
}

// placementDigest hashes every graph's placement (Proc, then Order) in
// graph order.
func placementDigest(t *testing.T, s heuristics.Scheduler, graphs []*dag.Graph) string {
	t.Helper()
	h := fnv.New64a()
	var buf [8]byte
	put := func(x int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	for gi, g := range graphs {
		pl, err := s.Schedule(g)
		if err != nil {
			t.Fatalf("graph %d: %v", gi, err)
		}
		if err := pl.Check(g); err != nil {
			t.Fatalf("graph %d: %v", gi, err)
		}
		for _, p := range pl.Proc {
			put(int64(p))
		}
		for _, q := range pl.Order {
			put(int64(len(q)))
			for _, v := range q {
				put(int64(v))
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestKnobPlacementDigests pins the placements of the non-default
// configurations, which the corpus and golden hashes (default configs
// only) do not cover. A refactor of the list-scheduling core must leave
// every digest unchanged.
func TestKnobPlacementDigests(t *testing.T) {
	graphs := knobGraphs()
	cases := []struct {
		name   string
		s      heuristics.Scheduler
		digest string
	}{
		{"ETF/MaxProcs=0", &etf.ETF{}, "c708f049dd614448"},
		{"ETF/MaxProcs=3", &etf.ETF{MaxProcs: 3}, "52c4e82a410a91d7"},
		{"DLS/MaxProcs=0", &dls.DLS{}, "5678782915fb4103"},
		{"DLS/MaxProcs=2", &dls.DLS{MaxProcs: 2}, "cfd21bed3e25d045"},
		{"MCP/Insertion", &mcp.MCP{Insertion: true}, "95be7498a76d39a6"},
		{"MCP/Append", &mcp.MCP{Insertion: false}, "ad82920e76598b5f"},
		{"CLANS/default", clans.New(), "efdc66e647af3998"},
		{"CLANS/NoSpeedupCheck", &clans.CLANS{}, "cf5a138a7f1d69e2"},
		{"CLANS/DeepPrimitives", &clans.CLANS{SpeedupCheck: true, DeepPrimitives: true}, "789575329776bf57"},
		{"CLANS/DeepNoSpeedupCheck", &clans.CLANS{DeepPrimitives: true}, "464d4432967912a0"},
		{"HU/EarliestStart", &hu.HU{Policy: hu.EarliestStart}, "c6d064b31725dbb1"},
		{"HU/EarliestStart/MaxProcs=3", &hu.HU{Policy: hu.EarliestStart, MaxProcs: 3}, "84f4c54a4c8028cf"},
		{"DCP", dcp.New(), "ab05a465aecd308e"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := placementDigest(t, c.s, graphs); got != c.digest {
				t.Errorf("placement digest = %s, want %s", got, c.digest)
			}
		})
	}
}
