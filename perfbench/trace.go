package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"vasppower/internal/core"
	"vasppower/internal/experiments"
	"vasppower/internal/obs"
	"vasppower/internal/serve"
	"vasppower/internal/workloads"
)

// comparePasses is how many untraced and traced passes the suite
// alternates per workload; trace.overhead_pct compares the fastest of
// each.
const comparePasses = 2

// suite is the traced layer run: every workload once, each with
// alternating untraced and traced passes. Spans go to one in-memory
// recorder; the program's own counters go to one registry, installed
// (experiments.Instrument) only during traced passes.
type suite struct {
	seed      uint64
	rec       *recorder
	reg       *obs.Registry
	metrics   map[string]metric
	attempted int64
	ok        int64
	untraced  float64 // Σ fastest untraced pass wall over workloads
	traced    float64
}

// compared is what one workload's alternating passes measured.
type compared struct {
	lastPass span             // the last traced pass span
	counters map[string]int64 // registry deltas over the last traced pass
	untraced []passOut
	gc       passStats // the last untraced pass
}

func (s *suite) put(name string, v float64, unit string) { s.metrics[name] = metric{v, unit} }

// compare runs b's alternating passes; setTrace switches b's spans on
// (under the given pass span) or off (nil recorder).
func (s *suite) compare(name string, b bench, setTrace func(*recorder, int64)) (compared, error) {
	var c compared
	bestU, bestT := math.Inf(1), math.Inf(1)
	for k := 0; k < 2*comparePasses; k++ {
		traced := k%2 == 1
		var passID int64
		if traced {
			experiments.Instrument(s.reg)
			passID = s.rec.start("pass."+name, 0)
			setTrace(s.rec, passID)
		}
		if err := b.prepare(k); err != nil {
			return c, err
		}
		before := s.reg.Snapshot().Counters
		st, err := timePass(func() error { return b.pass(k) })
		after := s.reg.Snapshot().Counters
		if traced {
			s.rec.end(passID)
			setTrace(nil, 0)
			experiments.Instrument(nil)
		}
		if err != nil {
			return c, err
		}
		out, err := b.check(k)
		if err != nil {
			return c, err
		}
		s.attempted += out.attempted
		s.ok += out.ok
		if traced {
			bestT = min(bestT, st.wall*st.speed)
			c.counters = map[string]int64{}
			for k, v := range after {
				c.counters[k] = v - before[k]
			}
			spans := s.rec.snapshot()
			c.lastPass = spans[passID-1]
		} else {
			bestU = min(bestU, st.wall*st.speed)
			c.untraced = append(c.untraced, out)
			c.gc = st
		}
	}
	s.untraced += bestU
	s.traced += bestT
	s.put(name+".trace.overhead_pct", 100*(bestT-bestU)/bestU, "%")
	s.put(name+".gc.cycles", float64(c.gc.gcCycles), "count")
	s.put(name+".gc.pause_ms", c.gc.gcPauseMS, "ms")
	return c, nil
}

// within returns the spans named name that started inside the pass.
func within(spans []span, pass span, name string) []span {
	var out []span
	for _, sp := range spans {
		if sp.Name == name && sp.Start >= pass.Start && sp.Start <= pass.End {
			out = append(out, sp)
		}
	}
	return out
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// runTraced runs the traced suite and prints the per-layer self times;
// the per-layer metrics go into the result.
func runTraced(seed uint64, spansPath string) (result, error) {
	s := &suite{
		seed: seed, reg: obs.NewRegistry(), metrics: map[string]metric{},
		rec: newRecorder(fmt.Sprintf("perfbench-%d-%d", seed, time.Now().UnixNano())),
	}
	defer experiments.Instrument(nil)
	steps := []struct {
		name string
		fn   func() error
	}{
		{"study", s.study},
		{"study-warm", s.studyWarm},
		{"facility", s.facility},
		{"serve-mix", s.serveMix},
	}
	for _, st := range steps {
		if err := st.fn(); err != nil {
			return result{}, fmt.Errorf("traced %s: %w", st.name, err)
		}
	}
	s.put("trace.overhead_pct", 100*(s.traced-s.untraced)/s.untraced, "%")
	if len(s.metrics) != len(perLayerNames()) {
		return result{}, fmt.Errorf("traced suite produced %d metrics, want %d", len(s.metrics), len(perLayerNames()))
	}
	for _, n := range perLayerNames() {
		if _, ok := s.metrics[n]; !ok {
			return result{}, fmt.Errorf("traced suite did not produce %s", n)
		}
	}

	spans := s.rec.snapshot()
	printLayers(os.Stdout, spans)
	if err := writeSpans(spansPath, spans); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("%d spans written to %s\n", len(spans), spansPath)
	return result{
		Correct:   s.ok == s.attempted && s.attempted > 0,
		Attempted: s.attempted,
		Failed:    s.attempted - s.ok,
		Metrics:   s.metrics,
	}, nil
}

func (s *suite) study() error {
	b := newStudy(false)
	b.reg = s.reg
	if err := b.setup(); err != nil {
		return err
	}
	c, err := s.compare("study", b, func(r *recorder, p int64) { b.rec, b.parent = r, p })
	if err != nil {
		return err
	}
	for i, u := range b.units {
		s.put("experiments."+u.name+"_s", b.durs[i]/1e3, "s")
	}
	s.put("memo.lookups", float64(c.counters["memo.lookups"]), "count")
	s.put("memo.hit_ratio", ratio(c.counters["memo.hits"], c.counters["memo.lookups"]), "ratio")
	s.put("memo.dedups", float64(c.counters["memo.dedups"]), "count")
	s.put("par.busy_frac", float64(c.counters["par.worker_busy_ns"])/(float64(c.lastPass.dur())*float64(workers)), "ratio")
	s.put("timeseries.samples", float64(c.counters["timeseries.samples"]), "count")
	s.put("timeseries.sum_segments", float64(c.counters["timeseries.sum_segments"]), "count")

	sc, err := experiments.RunScaling(paperConfig())
	if err != nil {
		return err
	}
	lo, hi := sc.ModeRange()
	s.put("experiments.paper_err_pct", 100*(math.Abs(lo-766)/766+math.Abs(hi-1814)/1814)/2, "%")

	// Replay the measurements the traced pass computed.
	var specs []replaySpec
	for _, sp := range within(s.rec.snapshot(), c.lastPass, "measure") {
		if hit, _ := sp.Attrs["cache_hit"].(bool); hit {
			continue
		}
		if rs, ok := specFromSpan(sp, paperConfig().Seed); ok {
			specs = append(specs, rs)
		}
	}
	s.put("core.measures", float64(len(specs)), "count")
	root := s.rec.start("replay", 0)
	kde, skipped, err := replay(s.rec, root, specs)
	s.rec.end(root)
	if err != nil {
		return err
	}
	if skipped > 0 {
		fmt.Printf("replay skipped %d of %d specs (benchmark not in Table I)\n", skipped, len(specs))
	}
	s.put("stats.kde_count", float64(kde), "count")
	all := s.rec.snapshot()
	self := selfTimes(all)
	for _, layer := range replayLayers {
		var ns int64
		for _, sp := range all {
			if sp.Name == layer && sp.Start >= all[root-1].Start {
				ns += self[sp.ID]
			}
		}
		s.put(replayMetric[layer], float64(ns)/1e6, "ms")
	}
	return nil
}

// perLayerNames lists the metrics runTraced prints.
func perLayerNames() []string {
	var n []string
	for _, u := range studyUnits() {
		n = append(n, "experiments."+u.name+"_s", "study-warm.experiments."+u.name+"_s")
	}
	n = append(n, "experiments.paper_err_pct",
		"memo.lookups", "memo.hit_ratio", "memo.dedups", "par.busy_frac",
		"core.measures", "stats.kde_count", "timeseries.samples", "timeseries.sum_segments")
	for _, l := range replayLayers {
		n = append(n, replayMetric[l])
	}
	n = append(n, "diskcache.hits", "diskcache.misses", "diskcache.read_mb", "diskcache.hit_us")
	for _, p := range facilityPolicies() {
		n = append(n, "sched.simulate_s."+p.Name())
	}
	n = append(n, "sched.catalog_s", "sched.packing_passes", "sched.hol_stalls", "sim.steps", "sched.ns_per_step",
		"serve.hit_ratio", "serve.batch_groups", "serve.shed",
		"serve.eval_ms", "serve.overhead_us",
		"serve.warm_p50_ms", "serve.warm_p90_ms", "serve.cold_p50_ms", "serve.cold_p90_ms", "serve.sweep_p50_ms")
	for _, w := range workloadNames {
		n = append(n, w+".trace.overhead_pct", w+".gc.cycles", w+".gc.pause_ms")
	}
	return append(n, "trace.overhead_pct")
}

// replayMetric names each replay layer's self-time metric.
var replayMetric = map[string]string{
	"workloads.resolve": "workloads.resolve_ms",
	"solver.solve":      "solver.solve_ms",
	"timeseries.sum":    "timeseries.sum_ms",
	"timeseries.sample": "timeseries.sample_ms",
	"stats.kde":         "stats.kde_ms",
}

func (s *suite) studyWarm() error {
	b := newStudy(true)
	b.reg = s.reg
	defer b.close()
	if err := b.setup(); err != nil {
		return err
	}
	c, err := s.compare("study-warm", b, func(r *recorder, p int64) { b.rec, b.parent = r, p })
	if err != nil {
		return err
	}
	for i, u := range b.units {
		s.put("study-warm.experiments."+u.name+"_s", b.durs[i]/1e3, "s")
	}
	s.put("diskcache.hits", float64(c.counters["diskcache.hits"]), "count")
	s.put("diskcache.misses", float64(c.counters["diskcache.misses"]), "count")
	s.put("diskcache.read_mb", float64(c.counters["diskcache.bytes_read"])/(1<<20), "MB")

	// One warm lookup timed from outside: a spec the pass read from
	// disk, with the memory tier cleared before every try.
	measures := within(s.rec.snapshot(), c.lastPass, "measure")
	if len(measures) == 0 {
		return fmt.Errorf("no measure spans in the warm pass")
	}
	rs, ok := specFromSpan(measures[0], paperConfig().Seed)
	b0, found := workloads.ByName(rs.bench)
	if !ok || !found {
		return fmt.Errorf("warm probe: unusable spec %+v", rs)
	}
	spec := core.MeasureSpec{Bench: b0, Nodes: rs.nodes, Repeats: rs.repeats, CapW: rs.capW, Seed: rs.seed}
	var us []float64
	for i := 0; i < 25; i++ {
		experiments.ResetCache()
		t0 := time.Now()
		if _, err := experiments.CachedMeasureSpec(spec); err != nil {
			return err
		}
		us = append(us, float64(time.Since(t0))/1e3)
	}
	s.put("diskcache.hit_us", median(us), "us")
	return nil
}

func (s *suite) facility() error {
	b := newFacility(s.seed)
	if err := b.setup(); err != nil {
		return err
	}
	s.put("sched.catalog_s", float64(b.catalogNS)/1e9, "s")
	c, err := s.compare("facility", b, func(r *recorder, p int64) { b.rec, b.parent = r, p })
	if err != nil {
		return err
	}
	var simNS float64
	for i, p := range b.policies {
		s.put("sched.simulate_s."+p.Name(), b.durs[i]/1e3, "s")
		simNS += b.durs[i] * 1e6
	}
	steps := c.counters["sim.steps"]
	s.put("sched.packing_passes", float64(c.counters["sched.packing_passes"]), "count")
	s.put("sched.hol_stalls", float64(c.counters["sched.hol_stalls"]), "count")
	s.put("sim.steps", float64(steps), "count")
	s.put("sched.ns_per_step", simNS/float64(max(steps, 1)), "ns")
	return nil
}

func (s *suite) serveMix() error {
	ev := &evalTimer{}
	b := newServeMix(s.seed, tracedServeConfig(s.reg, ev))
	defer b.close()
	if err := b.setup(); err != nil {
		return err
	}
	var evalAt, evalTraced int64
	c, err := s.compare("serve-mix", b, func(r *recorder, p int64) {
		b.rec, b.parent = r, p
		ev.trace(r, p)
		if r != nil {
			evalAt = ev.ns.Load()
		} else {
			evalTraced = ev.ns.Load() - evalAt
		}
	})
	if err != nil {
		return err
	}
	s.put("serve.hit_ratio", ratio(c.counters["serve.hits"], c.counters["serve.requests"]), "ratio")
	s.put("serve.batch_groups", float64(c.counters["serve.batch_groups"]), "count")
	s.put("serve.shed", float64(c.counters["serve.shed"]), "count")
	s.put("serve.eval_ms", float64(evalTraced)/1e6, "ms")

	// Request latencies by class, from the untraced passes.
	var byClass [3][]float64
	for k, out := range c.untraced {
		script := makeScript(s.seed, 2*k, len(b.bodies))
		for i, r := range script {
			byClass[r.class] = append(byClass[r.class], out.latMS[i])
		}
	}
	s.put("serve.warm_p50_ms", percentile(byClass[classWarm], 50), "ms")
	s.put("serve.warm_p90_ms", percentile(byClass[classWarm], 90), "ms")
	s.put("serve.cold_p50_ms", percentile(byClass[classCold], 50), "ms")
	s.put("serve.cold_p90_ms", percentile(byClass[classCold], 90), "ms")
	s.put("serve.sweep_p50_ms", percentile(byClass[classSweep], 50), "ms")

	us, err := serveOverhead(b)
	if err != nil {
		return err
	}
	s.put("serve.overhead_us", us, "us")
	return nil
}

// serveOverhead is the serve layer's own cost per request: the mean
// handler time of the last pass's script through Server.OneShot on a
// server whose evaluators return a fixed profile without computing.
func serveOverhead(b *serveMix) (float64, error) {
	bench, _ := workloads.ByName("PdO2")
	jp, err := experiments.CachedMeasureSpec(core.MeasureSpec{Bench: bench})
	if err != nil {
		return 0, err
	}
	stub := serve.New(serve.Config{
		Workers: workers,
		Measure: func(core.MeasureSpec) (core.JobProfile, error) { return jp, nil },
		MeasureGroup: func(_ core.MeasureSpec, caps []float64) ([]core.JobProfile, error) {
			out := make([]core.JobProfile, len(caps))
			for i := range out {
				out[i] = jp
			}
			return out, nil
		},
	})
	t0 := time.Now()
	for _, r := range b.script {
		if status, body := stub.OneShot("POST", r.path, r.body); status != 200 {
			return 0, fmt.Errorf("stub %s: %d %s", r.path, status, body)
		}
	}
	return float64(time.Since(t0)) / 1e3 / float64(len(b.script)), nil
}
