package main

import (
	"fmt"
	"time"

	"vasppower/internal/core"
	"vasppower/internal/experiments"
	"vasppower/internal/hw/platform"
	"vasppower/internal/sched"
)

// The pmsched -preset facility scale, plus a 900 kW demand-response
// window from t=100,000 s to t=200,000 s so that queues build and the
// packer meets head-of-line stalls (without it the 2 MW budget never
// binds and the scheduler has almost nothing to decide).
const (
	facilityNodes   = 1800
	facilityJobs    = 100000
	facilityArrival = 5.0
	facilityBudgetW = 2e6
	facilityIdleW   = 460
)

var facilityEnvelope = []sched.BudgetPhase{{Start: 100000, BudgetW: 900e3}, {Start: 200000, BudgetW: 2000e3}}

func facilityPolicies() []sched.Policy {
	return []sched.Policy{
		sched.NoCap{NodeTDP: platform.Default().Node.TDP},
		sched.UniformCap{Watts: 200, HostWatts: 350},
		sched.DefaultProfileAware(),
	}
}

// facilityJobStream is the job stream a run's seed selects.
func facilityJobStream(seed uint64) *sched.SyntheticStream {
	return sched.SyntheticJobStream(facilityJobs, facilityArrival, subSeed(seed, 1))
}

// policyOutcome is the part of a policy's result a pass must
// reproduce exactly.
type policyOutcome struct {
	completed, dropped                     int
	makespan, energy, meanWait, maxWait    float64
	peakPower, meanPerfLoss, throughputJph float64
}

func outcomeOf(r sched.Result) policyOutcome {
	return policyOutcome{
		completed: r.Completed, dropped: r.Dropped,
		makespan: r.Makespan, energy: r.TotalEnergyJ, meanWait: r.MeanWait, maxWait: r.MaxWait,
		peakPower: r.PeakPowerW, meanPerfLoss: r.MeanPerfLoss, throughputJph: r.Throughput,
	}
}

// facility simulates the three policies over the streamed job mix per
// pass. Each policy gets a fresh catalog whose measurements go through
// the process-wide cache (as pmsched wires it); set-up clears the
// memory tier and runs one pass, so the catalog measurements land in
// set-up and timed passes measure the scheduler alone.
type facility struct {
	seed     uint64
	policies []sched.Policy

	ref  []policyOutcome
	got  []policyOutcome
	durs []float64

	// catalogNS accumulates time inside the catalog's measurement hook.
	catalogNS int64
	// Tracing (nil rec = untraced): policy spans nest under parent,
	// catalog measurements under the policy span cur.
	rec         *recorder
	parent, cur int64
}

func newFacility(seed uint64) *facility {
	p := facilityPolicies()
	return &facility{seed: seed, policies: p,
		got: make([]policyOutcome, len(p)), durs: make([]float64, len(p))}
}

func (f *facility) setup() error {
	experiments.ResetCache()
	if err := f.pass(-1); err != nil {
		return err
	}
	for i, o := range f.got {
		if o.dropped != 0 || o.completed != facilityJobs {
			return fmt.Errorf("%s: completed %d of %d jobs, dropped %d", f.policies[i].Name(), o.completed, facilityJobs, o.dropped)
		}
	}
	f.ref = append(f.ref[:0], f.got...)
	return nil
}

func (f *facility) prepare(int) error { return nil }

func (f *facility) measure(spec core.MeasureSpec) (core.JobProfile, error) {
	id := f.rec.start("sched.catalog", f.cur)
	t0 := time.Now()
	jp, err := experiments.CachedMeasureSpec(spec)
	f.catalogNS += int64(time.Since(t0))
	f.rec.end(id)
	return jp, err
}

func (f *facility) pass(int) error {
	for i, p := range f.policies {
		cat := sched.NewCatalog(f.seed)
		cat.SetMeasure(f.measure)
		id := f.rec.start("sched.simulate."+p.Name(), f.parent)
		f.cur = id
		t0 := time.Now()
		res, err := sched.SimulateStream(sched.SimConfig{
			ClusterNodes:   facilityNodes,
			BudgetW:        facilityBudgetW,
			BudgetSchedule: facilityEnvelope,
			IdleNodeW:      facilityIdleW,
			Policy:         p,
			Catalog:        cat,
		}, facilityJobStream(f.seed))
		f.durs[i] = float64(time.Since(t0)) / 1e6
		f.rec.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name(), err)
		}
		f.got[i] = outcomeOf(res)
	}
	return nil
}

// check verifies that every policy completed every job, dropped none,
// and reproduced the set-up pass's result exactly.
func (f *facility) check(int) (passOut, error) {
	out := passOut{latMS: append([]float64(nil), f.durs...)}
	for i, o := range f.got {
		out.work += o.completed
		out.attempted++
		if o == f.ref[i] && o.dropped == 0 && o.completed == facilityJobs {
			out.ok++
		}
	}
	return out, nil
}

func (f *facility) close() {}
