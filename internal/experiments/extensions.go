package experiments

// Extension experiments beyond the paper's Tables 1-11, implementing
// the follow-ups its conclusion proposes:
//
//   - OptimalityGap: "no baseline is available" — for tiny graphs an
//     exact optimum is computable (internal/opt), so measure each
//     heuristic's true distance from optimal per granularity band.
//   - WiderWeightRanges: "study of both more selective and wider
//     ranges is called for".
//   - MetricComparison: is the paper's granularity metric actually a
//     better speedup predictor than Sarkar's (communication-blind)
//     definition it argues against?

import (
	"errors"
	"fmt"
	"math"

	"schedcomp/internal/core"
	"schedcomp/internal/corpus"
	"schedcomp/internal/dup"
	"schedcomp/internal/gen"
	"schedcomp/internal/heuristics"
	"schedcomp/internal/opt"
	"schedcomp/internal/stats"
)

// OptimalityGap generates perBand tiny graphs (≤ 12 tasks) in each
// granularity band, solves each exactly, and reports the mean ratio of
// each heuristic's parallel time to the optimum. Graphs whose exact
// search exceeds its budget are skipped (counted in the last column).
func OptimalityGap(seed int64, perBand int) (*stats.Table, error) {
	scheds := heuristics.All()
	cols := append([]string{""}, heuristics.PaperOrder...)
	cols = append(cols, "solved")
	t := stats.NewTable("Extension: mean parallel time / optimal parallel time (12-task graphs)", cols...)

	for bi, band := range gen.PaperBands() {
		accs := make([]stats.Acc, len(scheds))
		solved := 0
		for i := 0; i < perBand; i++ {
			g := gen.MustGenerate(gen.Params{
				Nodes: 12, Anchor: 2 + i%2, WMin: 20, WMax: 200, Gran: band,
			}, seed+int64(bi*1000+i))
			if g.NumNodes() > 12 {
				continue
			}
			// Seed the exact search with the best heuristic schedule.
			var times []int64
			var best int64
			for _, s := range scheds {
				sc, err := heuristics.Run(s, g)
				if err != nil {
					return nil, err
				}
				times = append(times, sc.Makespan)
				if best == 0 || sc.Makespan < best {
					best = sc.Makespan
				}
			}
			res, err := opt.Solve(g, opt.Options{Incumbent: best, MaxStates: 5_000_000})
			if errors.Is(err, opt.ErrBudget) {
				continue
			}
			if err != nil {
				return nil, err
			}
			solved++
			for hi, pt := range times {
				accs[hi].Add(float64(pt) / float64(res.Makespan))
			}
		}
		row := []string{band.String()}
		for hi := range scheds {
			row = append(row, stats.F(accs[hi].Mean()))
		}
		row = append(row, stats.I(solved))
		t.AddRow(row...)
	}
	return t, nil
}

// WiderWeightRanges extends Tables 6-9's domain with ranges up to
// 20-1600, reporting mean speedup per range (graphs drawn across the
// same five granularity bands as the main corpus).
func WiderWeightRanges(seed int64, graphsPerCell int) (*stats.Table, error) {
	ranges := []corpus.WeightRange{
		{Min: 20, Max: 50}, {Min: 20, Max: 100}, {Min: 20, Max: 200},
		{Min: 20, Max: 400}, {Min: 20, Max: 800}, {Min: 20, Max: 1600},
	}
	scheds := heuristics.All()
	t := stats.NewTable("Extension: average speedup over selective and wider node weight ranges",
		append([]string{""}, heuristics.PaperOrder...)...)
	bands := gen.PaperBands()
	for ri, wr := range ranges {
		accs := make([]stats.Acc, len(scheds))
		for bi, band := range bands {
			for i := 0; i < graphsPerCell; i++ {
				g := gen.MustGenerate(gen.Params{
					Nodes: 60, Anchor: 3, WMin: wr.Min, WMax: wr.Max, Gran: band,
				}, seed+int64(ri*100000+bi*1000+i))
				for hi, s := range scheds {
					sc, err := heuristics.Run(s, g)
					if err != nil {
						return nil, err
					}
					accs[hi].Add(sc.Speedup())
				}
			}
		}
		row := []string{wr.String()}
		for hi := range scheds {
			row = append(row, stats.F(accs[hi].Mean()))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// ExtendedOrder is the column order of the extended comparison: the
// paper's five plus ETF, EZ (Sarkar), LC (Kim & Browne), DLS (Sih &
// Lee) and DCP (mobility-driven, Kwok & Ahmad-inspired).
var ExtendedOrder = []string{"CLANS", "DSC", "MCP", "MH", "HU", "ETF", "EZ", "LC", "DLS", "DCP"}

// ExtendedComparison reruns the granularity study (the paper's
// conclusive domain) with eight heuristics: the compared five plus the
// three classic schedulers the paper's conclusion invites in. It
// reports mean speedup per granularity band.
func ExtendedComparison(seed int64, perBand int) (*stats.Table, error) {
	scheds := make([]heuristics.Scheduler, len(ExtendedOrder))
	for i, name := range ExtendedOrder {
		s, err := heuristics.New(name)
		if err != nil {
			return nil, err
		}
		scheds[i] = s
	}
	t := stats.NewTable(
		fmt.Sprintf("Extension: average speedup with %d heuristics, by granularity", len(ExtendedOrder)),
		append([]string{""}, ExtendedOrder...)...)
	for bi, band := range gen.PaperBands() {
		accs := make([]stats.Acc, len(scheds))
		for i := 0; i < perBand; i++ {
			g := gen.MustGenerate(gen.Params{
				Nodes: 70, Anchor: 2 + i%4, WMin: 20, WMax: 200, Gran: band,
			}, seed+int64(bi*1000+i))
			for hi, s := range scheds {
				sc, err := heuristics.Run(s, g)
				if err != nil {
					return nil, err
				}
				accs[hi].Add(sc.Speedup())
			}
		}
		row := []string{band.String()}
		for hi := range scheds {
			row = append(row, stats.F(accs[hi].Mean()))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// DuplicationGain quantifies the paper's no-duplication assumption:
// per granularity band, the mean speedup of the best of the five
// compared heuristics versus a duplication scheduler (simplified DSH),
// plus the mean number of extra task copies DSH spent.
func DuplicationGain(seed int64, perBand int) (*stats.Table, error) {
	scheds := heuristics.All()
	t := stats.NewTable("Extension: best no-duplication heuristic vs duplication (DSH)",
		"", "best-of-5 speedup", "DSH speedup", "DSH wins", "mean extra copies")
	for bi, band := range gen.PaperBands() {
		var best, dsh, copies stats.Acc
		wins := 0
		for i := 0; i < perBand; i++ {
			g := gen.MustGenerate(gen.Params{
				Nodes: 60, Anchor: 2 + i%4, WMin: 20, WMax: 200, Gran: band,
			}, seed+int64(bi*1000+i))
			var bestTime int64
			for _, s := range scheds {
				sc, err := heuristics.Run(s, g)
				if err != nil {
					return nil, err
				}
				if bestTime == 0 || sc.Makespan < bestTime {
					bestTime = sc.Makespan
				}
			}
			ds, err := dup.New().Schedule(g)
			if err != nil {
				return nil, err
			}
			best.Add(float64(g.SerialTime()) / float64(bestTime))
			dsh.Add(ds.Speedup())
			copies.Add(float64(ds.Duplicates()))
			if ds.Makespan < bestTime {
				wins++
			}
		}
		t.AddRow(band.String(), stats.F(best.Mean()), stats.F(dsh.Mean()),
			fmt.Sprintf("%d/%d", wins, perBand), stats.F(copies.Mean()))
	}
	return t, nil
}

// SpeedupQuantiles reports, per granularity band and heuristic, the
// 10th/50th/90th percentile of speedup over the evaluated corpus —
// the distributional view the paper's means hide (a mean of 1.2 can be
// "always 1.2" or "half 0.4, half 2.0", which matters for a compiler
// picking a scheduler).
func SpeedupQuantiles(ev *core.Evaluation) *stats.Table {
	bands := gen.PaperBands()
	t := stats.NewTable("Extension: speedup percentiles p10/p50/p90, by granularity",
		append([]string{""}, ev.Heuristics...)...)
	// Collect raw speedups per (band, heuristic).
	raw := make([][][]float64, len(bands))
	for i := range raw {
		raw[i] = make([][]float64, len(ev.Heuristics))
	}
	for _, set := range ev.Sets {
		k := bandKey(bands, set.Class)
		if k < 0 {
			continue
		}
		for _, g := range set.Graphs {
			for hi, m := range g.ByHeur {
				raw[k][hi] = append(raw[k][hi], m.Speedup)
			}
		}
	}
	for bi, band := range bands {
		row := []string{band.String()}
		for hi := range ev.Heuristics {
			xs := raw[bi][hi]
			row = append(row, fmt.Sprintf("%.2f/%.2f/%.2f",
				stats.Quantile(xs, 0.1), stats.Quantile(xs, 0.5), stats.Quantile(xs, 0.9)))
		}
		t.AddRow(row...)
	}
	return t
}

// SizeScaling reports mean speedup per heuristic as graph size grows,
// at a fixed mid-granularity class — how much usable parallelism the
// generator's structure exposes with scale, and which heuristics
// capture it.
func SizeScaling(seed int64, perSize int) (*stats.Table, error) {
	sizes := []int{25, 50, 100, 200, 400}
	scheds := heuristics.All()
	t := stats.NewTable("Extension: average speedup vs graph size (0.2 < G < 0.8, anchor 3)",
		append([]string{"nodes"}, heuristics.PaperOrder...)...)
	for si, size := range sizes {
		accs := make([]stats.Acc, len(scheds))
		for i := 0; i < perSize; i++ {
			g := gen.MustGenerate(gen.Params{
				Nodes: size, Anchor: 3, WMin: 20, WMax: 200,
				Gran: gen.Band{Lo: 0.2, Hi: 0.8},
			}, seed+int64(si*1000+i))
			for hi, s := range scheds {
				sc, err := heuristics.Run(s, g)
				if err != nil {
					return nil, err
				}
				accs[hi].Add(sc.Speedup())
			}
		}
		row := []string{stats.I(size)}
		for hi := range scheds {
			row = append(row, stats.F(accs[hi].Mean()))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// MetricComparison measures, per heuristic, the Pearson correlation of
// achieved speedup with (a) log of the paper's granularity and (b) log
// of Sarkar's granularity (mean node weight, communication-blind),
// over a mixed-class corpus. The paper's closing claim is that its
// metric "gives a very good overall measure of the useful parallelism"
// — this quantifies it against the alternative it cites.
func MetricComparison(seed int64, graphs int) (*stats.Table, error) {
	scheds := heuristics.All()
	bands := gen.PaperBands()
	speed := make([][]float64, len(scheds))
	var paperG, sarkarG []float64
	for i := 0; i < graphs; i++ {
		band := bands[i%len(bands)]
		g := gen.MustGenerate(gen.Params{
			Nodes: 50, Anchor: 2 + i%4, WMin: 20, WMax: 100 + int64(i%3)*150, Gran: band,
		}, seed+int64(i))
		paperG = append(paperG, math.Log(g.Granularity()))
		sarkarG = append(sarkarG, math.Log(g.SarkarGranularity()))
		for hi, s := range scheds {
			sc, err := heuristics.Run(s, g)
			if err != nil {
				return nil, err
			}
			speed[hi] = append(speed[hi], sc.Speedup())
		}
	}
	t := stats.NewTable(
		fmt.Sprintf("Extension: Pearson correlation of speedup with granularity metrics (%d graphs)", graphs),
		"", "paper granularity", "Sarkar granularity")
	for hi, s := range scheds {
		t.AddRow(s.Name(),
			stats.F(stats.Pearson(paperG, speed[hi])),
			stats.F(stats.Pearson(sarkarG, speed[hi])))
	}
	return t, nil
}

// Extensions runs every extension experiment at the sizes the
// reproduction report uses and returns their tables in report order.
func Extensions(seed int64) ([]*stats.Table, error) {
	runs := []struct {
		name string
		run  func() (*stats.Table, error)
	}{
		{"optimality gap", func() (*stats.Table, error) { return OptimalityGap(seed, 10) }},
		{"wider weight ranges", func() (*stats.Table, error) { return WiderWeightRanges(seed, 4) }},
		{"duplication gain", func() (*stats.Table, error) { return DuplicationGain(seed, 10) }},
		{"metric comparison", func() (*stats.Table, error) { return MetricComparison(seed, 100) }},
		{"extended comparison", func() (*stats.Table, error) { return ExtendedComparison(seed, 10) }},
		{"size scaling", func() (*stats.Table, error) { return SizeScaling(seed, 5) }},
	}
	tables := make([]*stats.Table, 0, len(runs))
	for _, r := range runs {
		t, err := r.run()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.name, err)
		}
		tables = append(tables, t)
	}
	return tables, nil
}
