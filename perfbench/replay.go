package main

import (
	"fmt"

	"vasppower/internal/core"
	"vasppower/internal/hw/platform"
	"vasppower/internal/timeseries"
	"vasppower/internal/workloads"
)

// replaySpec is one measurement as the program's "measure" span
// describes it.
type replaySpec struct {
	bench    string
	platform string
	nodes    int
	repeats  int
	capW     float64
	seed     uint64
}

// specFromSpan reads a replaySpec from a "measure" span's attributes.
func specFromSpan(s span, seed uint64) (replaySpec, bool) {
	bench, ok1 := s.Attrs["bench"].(string)
	plat, _ := s.Attrs["platform"].(string)
	nodes, ok2 := s.Attrs["nodes"].(float64)
	repeats, ok3 := s.Attrs["repeats"].(float64)
	capW, ok4 := s.Attrs["cap_w"].(float64)
	return replaySpec{bench, plat, int(nodes), int(repeats), capW, seed}, ok1 && ok2 && ok3 && ok4
}

// replayLayers are the spans one replayed measurement is split into,
// in pipeline order.
var replayLayers = []string{"workloads.resolve", "solver.solve", "timeseries.sum", "timeseries.sample", "stats.kde"}

// replay re-runs each spec through the public calls core.Measure is
// built from, one span per layer under a "replay.spec" span:
//
//	workloads.NewSweep    → workloads.resolve (schedule build, kernel resolution, node allocation)
//	Sweep.RunCap          → solver.solve      (cap solve plus trace recording)
//	Node.TotalTrace etc.  → timeseries.sum    (k-way merge of component traces)
//	Trace.Sample, Slice,
//	EnergyBetween         → timeseries.sample (cursor walks)
//	core.ProfileSeries    → stats.kde         (summary, KDE, modes)
//
// It returns how many ProfileSeries calls ran. Specs whose benchmark
// is not in Table I are skipped (the span carries only the name).
func replay(rec *recorder, parent int64, specs []replaySpec) (kdeCount, skipped int, err error) {
	for _, sp := range specs {
		b, ok := workloads.ByName(sp.bench)
		if !ok {
			skipped++
			continue
		}
		p := platform.Default()
		if sp.platform != "" && sp.platform != p.Name {
			if p, err = platform.Get(sp.platform); err != nil {
				return kdeCount, skipped, err
			}
		}
		n, err := replayOne(rec, parent, p, b, sp)
		kdeCount += n
		if err != nil {
			return kdeCount, skipped, fmt.Errorf("replay %s: %w", sp.bench, err)
		}
	}
	return kdeCount, skipped, nil
}

func replayOne(rec *recorder, parent int64, p platform.Platform, b workloads.Benchmark, sp replaySpec) (int, error) {
	root := rec.start("replay.spec", parent)
	defer rec.end(root)

	id := rec.start("workloads.resolve", root)
	sw, err := workloads.NewSweep(workloads.RunSpec{
		Bench: b, Platform: p, Nodes: sp.nodes, Repeats: sp.repeats, Seed: sp.seed, Workers: 1,
	})
	rec.end(id)
	if err != nil {
		return 0, err
	}
	defer sw.Close()

	id = rec.start("solver.solve", root)
	out, err := sw.RunCap(sp.capW)
	rec.end(id)
	if err != nil {
		return 0, err
	}

	id = rec.start("timeseries.sum", root)
	n0 := out.Nodes[0]
	total, gpuSum := n0.TotalTrace(), n0.GPUSumTrace()
	for _, n := range out.Nodes[1:] {
		n.TotalTrace()
	}
	rec.end(id)

	id = rec.start("timeseries.sample", root)
	const iv = core.DefaultSamplingInterval
	window := func(tr *timeseries.Trace) timeseries.Series {
		return tr.Sample(iv).Slice(out.VASPStart, out.VASPEnd)
	}
	series := []timeseries.Series{window(total), window(n0.CPUTrace()), window(n0.MemTrace()), window(gpuSum)}
	for i := 0; i < n0.NumGPUs(); i++ {
		series = append(series, window(n0.GPUTrace(i)))
	}
	for _, n := range out.Nodes {
		n.TotalTrace().EnergyBetween(out.VASPStart, out.VASPEnd)
	}
	rec.end(id)

	id = rec.start("stats.kde", root)
	for _, s := range series {
		core.ProfileSeries(s)
	}
	rec.end(id)
	return len(series), nil
}
