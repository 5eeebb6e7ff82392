package workloads

import (
	"reflect"
	"testing"

	"vasppower/internal/telemetry"
	"vasppower/internal/timeseries"
)

func sweepTestSpec(t *testing.T, repeats int, entropy float64) RunSpec {
	t.Helper()
	b, ok := ByName("B.hR105_hse")
	if !ok {
		t.Fatal("benchmark not found")
	}
	return RunSpec{
		Bench:          b,
		Nodes:          2,
		Repeats:        repeats,
		Seed:           7,
		OperandEntropy: entropy,
	}
}

func sweepTracesEqual(t *testing.T, label string, a, b *timeseries.Trace) {
	t.Helper()
	sa, sb := a.Segments(), b.Segments()
	if len(sa) != len(sb) {
		t.Fatalf("%s: %d segments vs %d", label, len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("%s: segment %d differs: %+v vs %+v", label, i, sa[i], sb[i])
		}
	}
}

// sweepOutputsEqual pins a sweep point to the oracle output: every
// runtime, the selected repeat, the solver summary, the VASP window,
// and every trace of every node, all bit-identical.
func sweepOutputsEqual(t *testing.T, oracle, got RunOutput) {
	t.Helper()
	if len(oracle.Runtimes) != len(got.Runtimes) {
		t.Fatalf("runtimes %v vs oracle %v", got.Runtimes, oracle.Runtimes)
	}
	for i := range oracle.Runtimes {
		if oracle.Runtimes[i] != got.Runtimes[i] {
			t.Fatalf("runtime[%d] %v vs oracle %v", i, got.Runtimes[i], oracle.Runtimes[i])
		}
	}
	if oracle.Best != got.Best {
		t.Fatalf("best %d vs oracle %d", got.Best, oracle.Best)
	}
	if oracle.BestResult.Runtime != got.BestResult.Runtime ||
		oracle.BestResult.EnergyJ != got.BestResult.EnergyJ ||
		oracle.BestResult.Steps != got.BestResult.Steps {
		t.Fatalf("best result %+v vs oracle %+v", got.BestResult, oracle.BestResult)
	}
	for k, v := range oracle.BestResult.PhaseDurations {
		if got.BestResult.PhaseDurations[k] != v {
			t.Fatalf("phase %q: %v vs oracle %v", k, got.BestResult.PhaseDurations[k], v)
		}
	}
	if oracle.VASPStart != got.VASPStart || oracle.VASPEnd != got.VASPEnd {
		t.Fatalf("window [%v,%v] vs oracle [%v,%v]",
			got.VASPStart, got.VASPEnd, oracle.VASPStart, oracle.VASPEnd)
	}
	if oracle.PhaseWindows["vasp"] != got.PhaseWindows["vasp"] {
		t.Fatalf("vasp window %v vs oracle %v", got.PhaseWindows["vasp"], oracle.PhaseWindows["vasp"])
	}
	if len(oracle.Nodes) != len(got.Nodes) {
		t.Fatalf("nodes %d vs oracle %d", len(got.Nodes), len(oracle.Nodes))
	}
	for ni := range oracle.Nodes {
		on, gn := oracle.Nodes[ni], got.Nodes[ni]
		if on.Name != gn.Name {
			t.Fatalf("node %d name %q vs oracle %q", ni, gn.Name, on.Name)
		}
		sweepTracesEqual(t, "cpu", on.CPUTrace(), gn.CPUTrace())
		sweepTracesEqual(t, "mem", on.MemTrace(), gn.MemTrace())
		for gi := 0; gi < on.NumGPUs(); gi++ {
			sweepTracesEqual(t, "gpu", on.GPUTrace(gi), gn.GPUTrace(gi))
			sweepTracesEqual(t, "gpumem", on.GPUMemTrace(gi), gn.GPUMemTrace(gi))
		}
		sweepTracesEqual(t, "total", on.TotalTrace(), gn.TotalTrace())
	}
}

// TestSweepCapPointsMatchRun is the engine's contract: every RunCap
// point of one Sweep is bit-identical to an independent Run with that
// cap, across repeats and entropy, in any point order (including
// revisiting a cap after other points).
func TestSweepCapPointsMatchRun(t *testing.T) {
	for _, tc := range []struct {
		repeats int
		entropy float64
	}{{1, 0}, {3, 0}, {2, 0.7}} {
		spec := sweepTestSpec(t, tc.repeats, tc.entropy)
		sw, err := NewSweep(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, capW := range []float64{0, 400, 250, 400, 0} {
			oracleSpec := spec
			oracleSpec.GPUPowerLimit = capW
			want, err := Run(oracleSpec)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sw.RunCap(capW)
			if err != nil {
				t.Fatal(err)
			}
			sweepOutputsEqual(t, want, got)
		}
		sw.Close()
	}
}

// TestSweepClockPointsMatchRun pins the DVFS axis the same way.
func TestSweepClockPointsMatchRun(t *testing.T) {
	spec := sweepTestSpec(t, 2, 0)
	sw, err := NewSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	for _, mhz := range []float64{0, 1200, 900, 1395} {
		oracleSpec := spec
		oracleSpec.GPUClockLimitMHz = mhz
		want, err := Run(oracleSpec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sw.RunClockMHz(mhz)
		if err != nil {
			t.Fatal(err)
		}
		sweepOutputsEqual(t, want, got)
	}
}

// TestSweepMixedAxesMatchRun interleaves cap and clock points: each
// Run* call must fully clear the other axis's limit.
func TestSweepMixedAxesMatchRun(t *testing.T) {
	spec := sweepTestSpec(t, 1, 0)
	sw, err := NewSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()

	oracleSpec := spec
	oracleSpec.GPUClockLimitMHz = 1200
	if _, err := sw.RunCap(300); err != nil {
		t.Fatal(err)
	}
	want, err := Run(oracleSpec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sw.RunClockMHz(1200)
	if err != nil {
		t.Fatal(err)
	}
	sweepOutputsEqual(t, want, got)

	oracleSpec = spec
	oracleSpec.GPUPowerLimit = 300
	want, err = Run(oracleSpec)
	if err != nil {
		t.Fatal(err)
	}
	got, err = sw.RunCap(300)
	if err != nil {
		t.Fatal(err)
	}
	sweepOutputsEqual(t, want, got)
}

// TestSweepRejectsUnsupportedSpecs: the engine refuses specs that are
// not a sweep (the prelude protocol, limits fixed in the spec).
func TestSweepRejectsUnsupportedSpecs(t *testing.T) {
	base := sweepTestSpec(t, 1, 0)

	spec := base
	spec.Prelude = true
	if _, err := NewSweep(spec); err == nil {
		t.Fatal("prelude spec accepted")
	}

	spec = base
	spec.GPUPowerLimit = 300
	if _, err := NewSweep(spec); err == nil {
		t.Fatal("pre-capped spec accepted")
	}

	spec = base
	spec.GPUClockLimitMHz = 1200
	if _, err := NewSweep(spec); err == nil {
		t.Fatal("pre-locked spec accepted")
	}
}

// TestSweepPublishesEveryPoint: under an active telemetry sink every
// RunCap point streams its selected repeat, sample for sample what Run
// at the same caps streams — so a telemetry-enabled process measures
// through the sweep engine like any other.
func TestSweepPublishesEveryPoint(t *testing.T) {
	spec := sweepTestSpec(t, 2, 0)
	caps := []float64{0, 250, 300}
	stream := func(do func() error) []telemetry.Sample {
		t.Helper()
		hub := telemetry.NewHub()
		sub, err := hub.Subscribe("", 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		smp, err := telemetry.NewSampler(hub, 2)
		if err != nil {
			t.Fatal(err)
		}
		telemetry.SetDefault(smp)
		defer telemetry.SetDefault(nil)
		if err := do(); err != nil {
			t.Fatal(err)
		}
		if sub.Dropped() != 0 {
			t.Fatalf("subscription dropped %d samples", sub.Dropped())
		}
		var out []telemetry.Sample
		for {
			s, ok := sub.TryNext()
			if !ok {
				return out
			}
			out = append(out, s)
		}
	}
	want := stream(func() error {
		for _, capW := range caps {
			pt := spec
			pt.GPUPowerLimit = capW
			if _, err := Run(pt); err != nil {
				return err
			}
		}
		return nil
	})
	got := stream(func() error {
		sw, err := NewSweep(spec)
		if err != nil {
			return err
		}
		defer sw.Close()
		for _, capW := range caps {
			if _, err := sw.RunCap(capW); err != nil {
				return err
			}
		}
		return nil
	})
	perHost := func(ss []telemetry.Sample) map[string]int {
		m := map[string]int{}
		for _, s := range ss {
			m[s.Host]++
		}
		return m
	}
	wantHosts, gotHosts := perHost(want), perHost(got)
	if len(wantHosts) != spec.Nodes {
		t.Fatalf("Run published %d hosts, want %d", len(wantHosts), spec.Nodes)
	}
	if !reflect.DeepEqual(wantHosts, gotHosts) {
		t.Fatalf("sweep published %v samples per host, Run %v", gotHosts, wantHosts)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("sweep sample stream differs from Run's")
	}
}

// BenchmarkCapSweep measures the run engine itself — schedule solve +
// trace recording, the phase the incremental split restructures — on a
// cold 16-point cap sweep at the paper's 5-repeat protocol: a full
// oracle Run per point versus one NewSweep plus 16 RunCap points.
// (The core-level grid in internal/core wraps this with the shared
// profiling pass, which is identical on both paths.)
func BenchmarkCapSweep(b *testing.B) {
	bench, ok := ByName("B.hR105_hse")
	if !ok {
		b.Fatal("benchmark not found")
	}
	spec := RunSpec{Bench: bench, Nodes: 1, Repeats: 5, Seed: 7}
	caps := make([]float64, 16)
	for i := range caps {
		caps[i] = 180 + 14*float64(i) // 180..390 W, all binding on A100
	}

	b.Run("points=16/repeats=5/engine=oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, capW := range caps {
				pt := spec
				pt.GPUPowerLimit = capW
				if _, err := Run(pt); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	b.Run("points=16/repeats=5/engine=incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sw, err := NewSweep(spec)
			if err != nil {
				b.Fatal(err)
			}
			for _, capW := range caps {
				if _, err := sw.RunCap(capW); err != nil {
					b.Fatal(err)
				}
			}
			sw.Close()
		}
	})
}

// TestSweepCloseReleasesArena: the active-sweep gauge returns to zero,
// Close is idempotent, and a closed sweep refuses to run.
func TestSweepCloseReleasesArena(t *testing.T) {
	before := ActiveSweeps()
	sw, err := NewSweep(sweepTestSpec(t, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got := ActiveSweeps(); got != before+1 {
		t.Fatalf("active sweeps %d, want %d", got, before+1)
	}
	if _, err := sw.RunCap(300); err != nil {
		t.Fatal(err)
	}
	sw.Close()
	sw.Close()
	if got := ActiveSweeps(); got != before {
		t.Fatalf("active sweeps %d after close, want %d", got, before)
	}
	if _, err := sw.RunCap(300); err == nil {
		t.Fatal("closed sweep ran")
	}

	// The arena's nodes went back to the pool with limits and traces
	// reset: a fresh sweep from the same spec must reproduce the oracle.
	spec := sweepTestSpec(t, 1, 0)
	sw2, err := NewSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer sw2.Close()
	want, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sw2.RunCap(0)
	if err != nil {
		t.Fatal(err)
	}
	sweepOutputsEqual(t, want, got)
}
