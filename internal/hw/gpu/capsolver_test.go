package gpu

import (
	"testing"

	"vasppower/internal/rng"
)

// execsEqual demands exact float equality on every Execution field —
// the CapSolver contract is bit-identity with the full-evaluation
// oracle, not tolerance.
func execsEqual(t *testing.T, label string, want, got Execution) {
	t.Helper()
	if want != got {
		t.Fatalf("%s: solver %+v vs oracle %+v", label, got, want)
	}
}

// capSolverDevices spans the spec × variability grid the incremental
// engine sees in practice: nominal boards of both A100 flavors plus
// seeded-variability devices whose idle/efficiency scales differ.
func capSolverDevices() []*GPU {
	devs := []*GPU{
		New(A100SXM40GB(), nil, 0, nil, DefaultVariability()),
		New(A100SXM80GB(), nil, 0, nil, DefaultVariability()),
	}
	r := rng.New(99)
	for i := 0; i < 4; i++ {
		devs = append(devs, New(A100SXM40GB(), nil, i, r.Split("var"), DefaultVariability()))
		devs = append(devs, New(A100SXM80GB(), nil, i, r.Split("var80"), DefaultVariability()))
	}
	return devs
}

// TestCapSolverMatchesRun pins NewCapSolver(spec, k, p).Solve(g) — and
// Run, UncappedPower and UncappedDuration, which go through it — to
// the full-evaluation oracle bit for bit across kernels (fixed
// compute- and memory-bound plus random draws from every class, half
// of them made memory-bound),
// devices with seeded variability sharing one solver per kernel, and
// the full power- and clock-limit grid — uncapped, binding, and floor.
func TestCapSolverMatchesRun(t *testing.T) {
	kr := rng.New(41)
	kernels := []Kernel{dgemmKernel(), streamKernel()}
	for i := 0; i < 24; i++ {
		kernels = append(kernels, randomKernel(kr))
		// The same work with a thousandth of the flops is memory-bound
		// at every clock: random draws alone rarely reach the
		// memory-bound fast path.
		mk := randomKernel(kr)
		mk.Flops /= 1e3
		kernels = append(kernels, mk)
	}

	devs := capSolverDevices()
	solvers := make(map[string][]CapSolver)
	for _, g := range devs {
		if solvers[g.Spec.Name] != nil {
			continue
		}
		for _, k := range kernels {
			p, err := g.Resolve(k)
			if err != nil {
				t.Fatal(err)
			}
			solvers[g.Spec.Name] = append(solvers[g.Spec.Name], NewCapSolver(g.Spec, k, p))
		}
	}
	for di, g := range devs {
		caps := []float64{0, g.Spec.TDP, g.Spec.MinPowerLimit,
			g.Spec.MinPowerLimit + 30, 200, 250, 330}
		clocks := []float64{0, g.Spec.MaxClockMHz,
			g.Spec.MinClockFrac * g.Spec.MaxClockMHz, 1100}
		for ki, k := range kernels {
			p, err := g.Resolve(k)
			if err != nil {
				t.Fatal(err)
			}
			s := solvers[g.Spec.Name][ki]
			if got, want := g.UncappedPower(k), g.powerAt(k, p, 1); got != want {
				t.Fatalf("dev=%d kernel=%d: UncappedPower %v vs oracle %v", di, ki, got, want)
			}
			if got, want := g.UncappedDuration(k), g.timeAt(k, p, 1); got != want {
				t.Fatalf("dev=%d kernel=%d: UncappedDuration %v vs oracle %v", di, ki, got, want)
			}
			for _, capW := range caps {
				for _, mhz := range clocks {
					if capW == 0 {
						g.ResetPowerLimit()
					} else if err := g.SetPowerLimit(capW); err != nil {
						t.Fatal(err)
					}
					if mhz == 0 {
						g.ResetClockLimit()
					} else if err := g.SetClockLimitMHz(mhz); err != nil {
						t.Fatal(err)
					}
					want := g.runOracle(k)
					label := kernelGridLabel(di, ki, capW, mhz)
					execsEqual(t, label, want, s.Solve(g))
					execsEqual(t, label+" (Run)", want, g.Run(k))
				}
			}
			g.ResetPowerLimit()
			g.ResetClockLimit()
		}
	}
}

func kernelGridLabel(di, ki int, capW, mhz float64) string {
	return "dev=" + itoa(di) + " kernel=" + itoa(ki) +
		" cap=" + itoa(int(capW)) + "W clock=" + itoa(int(mhz)) + "MHz"
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// TestCapSolverMemBoundFastPath checks the collapsed predicate really
// engages for a memory-bound kernel and stays off for a compute-bound
// one — the structural speedup the incremental engine relies on.
func TestCapSolverMemBoundFastPath(t *testing.T) {
	g := nominal()
	sk := streamKernel()
	s := NewCapSolver(g.Spec, sk, resolve(t, g, sk))
	if !s.memBound {
		t.Fatal("STREAM kernel not detected as memory-bound")
	}
	dk := dgemmKernel()
	s = NewCapSolver(g.Spec, dk, resolve(t, g, dk))
	if s.memBound {
		t.Fatal("DGEMM kernel mis-detected as memory-bound")
	}
}

// BenchmarkCapSolverSolve measures the per-point bisection cost the
// prepared engine pays, against the oracle's full resolve-and-bisect.
func BenchmarkCapSolverSolve(b *testing.B) {
	g := nominal()
	if err := g.SetPowerLimit(250); err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		k    Kernel
	}{{"compute", dgemmKernel()}, {"memory", streamKernel()}} {
		p, err := g.Resolve(bc.k)
		if err != nil {
			b.Fatal(err)
		}
		s := NewCapSolver(g.Spec, bc.k, p)
		b.Run(bc.name+"/oracle", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g.runOracle(bc.k)
			}
		})
		b.Run(bc.name+"/capsolver", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.Solve(g)
			}
		})
	}
	g.ResetPowerLimit()
}
