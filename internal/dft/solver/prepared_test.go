package solver

import (
	"testing"

	"vasppower/internal/dft/method"
	"vasppower/internal/hw/node"
	"vasppower/internal/rng"
	"vasppower/internal/timeseries"
)

// tracesEqual compares two traces segment-for-segment with exact
// float equality — the differential contract is bit-identity, not
// tolerance.
func tracesEqual(t *testing.T, label string, a, b *timeseries.Trace) {
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

// nodesEqual asserts every component trace of each node pair is
// bit-identical.
func nodesEqual(t *testing.T, a, b []*node.Node) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("node counts differ: %d vs %d", len(a), len(b))
	}
	for ni := range a {
		tracesEqual(t, "cpu", a[ni].CPUTrace(), b[ni].CPUTrace())
		tracesEqual(t, "mem", a[ni].MemTrace(), b[ni].MemTrace())
		for gi := 0; gi < a[ni].NumGPUs(); gi++ {
			tracesEqual(t, "gpu", a[ni].GPUTrace(gi), b[ni].GPUTrace(gi))
			tracesEqual(t, "gpumem", a[ni].GPUMemTrace(gi), b[ni].GPUMemTrace(gi))
		}
		tracesEqual(t, "total", a[ni].TotalTrace(), b[ni].TotalTrace())
	}
}

func resultsEqual(t *testing.T, oracle, prep Result) {
	t.Helper()
	if oracle.Runtime != prep.Runtime {
		t.Fatalf("runtime %v vs oracle %v", prep.Runtime, oracle.Runtime)
	}
	if oracle.EnergyJ != prep.EnergyJ {
		t.Fatalf("energy %v vs oracle %v", prep.EnergyJ, oracle.EnergyJ)
	}
	if oracle.Steps != prep.Steps {
		t.Fatalf("steps %d vs oracle %d", prep.Steps, oracle.Steps)
	}
	if len(oracle.PhaseDurations) != len(prep.PhaseDurations) {
		t.Fatalf("phases %v vs oracle %v", prep.PhaseDurations, oracle.PhaseDurations)
	}
	for k, v := range oracle.PhaseDurations {
		if prep.PhaseDurations[k] != v {
			t.Fatalf("phase %q: %v vs oracle %v", k, prep.PhaseDurations[k], v)
		}
	}
}

// TestPreparedMatchesRunExactly pins Run — Prepare plus one
// Prepared.Run plus the trace energy — to the step-by-step oracle
// across methods, node counts, device variability, and noise: every
// float of every trace must be bit-identical, and so must the energy
// and the noise stream's final state.
func TestPreparedMatchesRunExactly(t *testing.T) {
	for _, kind := range []method.Kind{method.DFTRMM, method.DFTBDRMM, method.HSE, method.ACFDTR} {
		for _, nodes := range []int{1, 2} {
			for _, noisy := range []bool{false, true} {
				oracleJob := testJob(t, kind, nodes, true)
				prepJob := testJob(t, kind, nodes, true)
				if noisy {
					oracleJob.Noise = rng.New(42)
					prepJob.Noise = rng.New(42)
				}
				want, err := runOracle(oracleJob)
				if err != nil {
					t.Fatal(err)
				}
				got, err := Run(prepJob)
				if err != nil {
					t.Fatal(err)
				}
				resultsEqual(t, want, got)
				nodesEqual(t, oracleJob.Nodes, prepJob.Nodes)
				if noisy && oracleJob.Noise.Uint64() != prepJob.Noise.Uint64() {
					t.Fatal("noise streams diverged")
				}
			}
		}
	}
}

// runPrepared is one Prepared.Run with its energy read off the traces,
// as Run and the sweep engine report it.
func runPrepared(prep *Prepared, noise *rng.Stream) Result {
	start := prep.job.Nodes[0].TraceDuration()
	res := prep.Run(noise)
	res.EnergyJ = Energy(prep.job.Nodes, start)
	return res
}

// TestPreparedSweepMatchesOracle reuses one Prepared across cap and
// clock points — the incremental engine's whole reason to exist — and
// checks each point against a fresh full oracle run.
func TestPreparedSweepMatchesOracle(t *testing.T) {
	prepJob := testJob(t, method.HSE, 2, true)
	prep, err := Prepare(prepJob)
	if err != nil {
		t.Fatal(err)
	}
	points := []struct {
		capW float64
		mhz  float64
	}{
		{0, 0}, {400, 0}, {250, 0}, {0, 0}, {0, 1200}, {0, 900}, {300, 0},
	}
	for _, pt := range points {
		oracleJob := testJob(t, method.HSE, 2, true)
		for _, n := range oracleJob.Nodes {
			if pt.capW > 0 {
				if err := n.SetGPUPowerLimits(pt.capW); err != nil {
					t.Fatal(err)
				}
			}
			if pt.mhz > 0 {
				if err := n.SetGPUClockLimits(pt.mhz); err != nil {
					t.Fatal(err)
				}
			}
		}
		oracleJob.Noise = rng.New(7)
		want, err := runOracle(oracleJob)
		if err != nil {
			t.Fatal(err)
		}

		for _, n := range prepJob.Nodes {
			n.ResetTracesReuse()
		}
		if err := prep.SetGPUClockLimitMHz(pt.mhz); err != nil {
			t.Fatal(err)
		}
		if err := prep.SetGPUPowerLimit(pt.capW); err != nil {
			t.Fatal(err)
		}
		got := runPrepared(prep, rng.New(7))
		resultsEqual(t, want, got)
		nodesEqual(t, oracleJob.Nodes, prepJob.Nodes)
	}
}

// TestPreparedPhaseMapReused documents the scratch contract: the next
// Run overwrites the previous Result's PhaseDurations.
func TestPreparedPhaseMapReused(t *testing.T) {
	prep, err := Prepare(testJob(t, method.DFTRMM, 1, false))
	if err != nil {
		t.Fatal(err)
	}
	r1 := prep.Run(nil)
	m1 := r1.PhaseDurations
	for _, n := range prep.job.Nodes {
		n.ResetTracesReuse()
	}
	r2 := prep.Run(nil)
	if &m1 == &r2.PhaseDurations {
	} // same map is expected; the assertion is aliasing, below
	m1["sentinel"] = 1
	if r2.PhaseDurations["sentinel"] != 1 {
		t.Fatal("PhaseDurations no longer aliases the prepared scratch map (update the doc contract)")
	}
}

// TestPreparedSetLimitErrors mirrors the per-device range checks.
func TestPreparedSetLimitErrors(t *testing.T) {
	prep, err := Prepare(testJob(t, method.DFTRMM, 1, false))
	if err != nil {
		t.Fatal(err)
	}
	if err := prep.SetGPUPowerLimit(1); err == nil {
		t.Fatal("1 W cap accepted")
	}
	if err := prep.SetGPUPowerLimit(0); err != nil {
		t.Fatal(err)
	}
	if err := prep.SetGPUClockLimitMHz(1); err == nil {
		t.Fatal("1 MHz clock accepted")
	}
	if err := prep.SetGPUClockLimitMHz(0); err != nil {
		t.Fatal(err)
	}
}

// TestPreparedValidation matches the oracle's construction errors.
func TestPreparedValidation(t *testing.T) {
	job := testJob(t, method.DFTRMM, 1, false)
	bad := job
	bad.Schedule = &method.Schedule{}
	if _, err := Prepare(bad); err == nil {
		t.Fatal("empty schedule accepted")
	}
	bad = job
	bad.Nodes = nil
	if _, err := Prepare(bad); err == nil {
		t.Fatal("no nodes accepted")
	}
}

// TestPreparedRunSteadyStateAllocs is the arena claim: after the first
// point, a solve allocates nothing.
func TestPreparedRunSteadyStateAllocs(t *testing.T) {
	job := testJob(t, method.HSE, 1, true)
	prep, err := Prepare(job)
	if err != nil {
		t.Fatal(err)
	}
	reset := func() {
		for _, n := range job.Nodes {
			n.ResetTracesReuse()
		}
	}
	noise := rng.New(3)
	init := *noise
	// Warm the arena: first run grows trace and scratch capacity.
	prep.Run(noise)
	allocs := testing.AllocsPerRun(10, func() {
		reset()
		*noise = init
		prep.Run(noise)
	})
	if allocs > 0 {
		t.Fatalf("steady-state Run allocates %v objects/op, want 0", allocs)
	}
}
