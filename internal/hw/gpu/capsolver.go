package gpu

import "math"

// CapSolver is the device-independent half of running one kernel on a
// device model: every constant of the power and timing model that
// depends on neither the clock nor the device's manufacturing
// variability — resolved-profile products, the memory-side duration,
// the memory-bound fast path — computed once per kernel. Solve then
// applies one device's two variability scales and runs the clock
// decision under that device's current power and clock limits, so one
// CapSolver serves every device of a job and every point of a sweep.
//
// Every hoisted value is a contiguous subtree of the model's
// expression, evaluated in the same order on the same inputs, so Solve
// is bit-identical to the unhoisted model (pinned against the
// retained full-evaluation oracle by capsolver_test.go). The big win
// is the memory-bound case — common across the VASP methods'
// FFT-heavy schedules — where the kernel duration does not depend on
// the clock at all and the bisection predicate collapses to a handful
// of flops.
type CapSolver struct {
	bytes      float64 // Kernel.Bytes
	flops      float64 // Kernel.Flops
	latency    float64 // ExecProfile.Latency
	powerScale float64 // ExecProfile.PowerScale (0 = reference data)
	fcDen      float64 // ComputeOcc·PeakFlops (tc = Flops/(fcDen·c))
	tm         float64 // memory-side duration, clock-independent
	cs         float64 // CompPowerFull·smActivity(p)
	gamma      float64 // Gamma
	gamma3     float64 // 1−Gamma
	memFull    float64 // MemPowerFull
	peakMemBW  float64 // PeakMemBW

	// memBound: the kernel is memory-bound at every clock the device
	// can run (tc(MinClockFrac) ≤ tm, and tc only shrinks as the clock
	// rises), so duration, byte rate, and the SM duty cycle are all
	// clock-independent and fold into constants.
	memBound bool
	tConst   float64 // latency + tm
	csActive float64 // cs·active at the constant duration
	bwFrac   float64 // byteRate/PeakMemBW at the constant duration
	memTerm  float64 // MemPowerFull·bwFrac
}

// NewCapSolver hoists the device-independent constants of running k
// on a device of the given spec under its resolved profile p. The
// profile must be the device table's Resolve(k) result; given that,
// Solve(g) on any device g of this spec is bit-identical to the full
// model under every power and clock limit.
func NewCapSolver(sp Spec, k Kernel, p ExecProfile) CapSolver {
	s := CapSolver{
		bytes:      k.Bytes,
		flops:      k.Flops,
		latency:    p.Latency,
		powerScale: p.PowerScale,
		cs:         sp.CompPowerFull * smActivity(p),
		gamma:      sp.Gamma,
		gamma3:     1 - sp.Gamma,
		memFull:    sp.MemPowerFull,
		peakMemBW:  sp.PeakMemBW,
	}
	if k.Flops > 0 {
		s.fcDen = p.ComputeOcc * sp.PeakFlops
	}
	if k.Bytes > 0 {
		s.tm = k.Bytes / (p.MemOcc * sp.PeakMemBW)
	}
	// Memory-bound at the lowest clock ⇒ memory-bound everywhere: the
	// compute-side duration only shrinks as the clock rises, so
	// math.Max picks tm at every clock the bisection can visit.
	tcMax := 0.0
	if k.Flops > 0 {
		tcMax = k.Flops / (s.fcDen * sp.MinClockFrac)
	}
	if tcMax <= s.tm {
		s.memBound = true
		t := s.latency + math.Max(tcMax, s.tm) // = latency + tm, Max kept for the tc == tm tie
		s.tConst = t
		if t > 0 {
			byteRate := k.Bytes / t
			active := 1.0
			if p.Latency > 0 {
				active = (t - p.Latency) / t
				if active < 0 {
					active = 0
				}
			}
			s.csActive = s.cs * active
			s.bwFrac = byteRate / sp.PeakMemBW
			s.memTerm = sp.MemPowerFull * s.bwFrac
		}
	}
	return s
}

// smActivity resolves the profile's SM busyness.
func smActivity(p ExecProfile) float64 {
	if p.SMActivity > 0 {
		return p.SMActivity
	}
	return p.ComputeOcc
}

// deviceTerms are the per-device factors of the power model: the
// static base and dynamic efficiency after the device's variability
// scales.
type deviceTerms struct {
	base    float64 // IdleWatts·idleScale + ActiveBase·idleScale
	eff     float64 // effScale (· PowerScale)
	effMemF float64 // eff·MemPowerFull
	idleP   float64 // power at t ≤ 0
	hbmIdle float64 // memory-domain power at t ≤ 0
}

func (s *CapSolver) terms(g *GPU) deviceTerms {
	sp := &g.Spec
	d := deviceTerms{
		base:    sp.IdleWatts*g.idleScale + sp.ActiveBase*g.idleScale,
		eff:     g.effScale,
		idleP:   g.IdlePower(),
		hbmIdle: g.HBMIdlePower(),
	}
	// The operand-entropy factor scales dynamic power only: static
	// draw does not depend on what the wires carry.
	if s.powerScale != 0 {
		d.eff *= s.powerScale
	}
	d.effMemF = d.eff * sp.MemPowerFull
	return d
}

// timeAt returns the kernel duration at clock fraction c. Memory
// bandwidth is clock-independent: the power cap governs SM clocks
// only, as on real A100s.
func (s *CapSolver) timeAt(c float64) float64 {
	if s.memBound {
		return s.tConst
	}
	var tc float64
	if s.flops > 0 {
		tc = s.flops / (s.fcDen * c)
	}
	return s.latency + math.Max(tc, s.tm)
}

// powerAt returns sustained board power while the kernel runs at
// clock c.
func (s *CapSolver) powerAt(d *deviceTerms, c float64) float64 {
	// Dynamic SM power ∝ V²f ≈ γ·c + (1−γ)·c³.
	cf := s.gamma*c + s.gamma3*c*c*c
	if s.memBound {
		if s.tConst <= 0 {
			return d.idleP
		}
		return d.base + d.eff*(s.csActive*cf+s.memTerm)
	}
	t := s.timeAt(c)
	if t <= 0 {
		return d.idleP
	}
	byteRate := s.bytes / t
	// During the fixed-latency portion (launch gaps, serial chains)
	// the SMs are quiet: duty-cycle the SM term.
	active := 1.0
	if s.latency > 0 && t > 0 {
		active = (t - s.latency) / t
		if active < 0 {
			active = 0
		}
	}
	return d.base + d.eff*(s.cs*active*cf+s.memFull*(byteRate/s.peakMemBW))
}

// memPowerAt returns the memory-domain share of powerAt: the HBM idle
// share plus the dynamic bandwidth term. Both terms also appear inside
// powerAt, so memPowerAt ≤ powerAt at every clock (the rest of the
// board — SMs, base, the non-HBM idle share — is non-negative), which
// is what keeps the domain decomposition consistent with the board
// total.
func (s *CapSolver) memPowerAt(d *deviceTerms, c float64) float64 {
	if s.memBound {
		if s.tConst <= 0 {
			return d.hbmIdle
		}
		return d.hbmIdle + d.effMemF*s.bwFrac
	}
	t := s.timeAt(c)
	if t <= 0 {
		return d.hbmIdle
	}
	byteRate := s.bytes / t
	return d.hbmIdle + d.effMemF*(byteRate/s.peakMemBW)
}

// Solve runs the kernel on g under g's current power and clock limits:
// the uncapped fast path, the floor overshoot, or a 48-iteration
// bisection for the highest clock whose power fits the cap. g must be
// a device of the spec the solver was built for.
func (s *CapSolver) Solve(g *GPU) Execution {
	d := s.terms(g)
	cap := g.effectiveCap()
	cMin := g.Spec.MinClockFrac
	cMax := g.clockLimit // DVFS ceiling (1 when unlocked)
	if pw := s.powerAt(&d, cMax); pw <= cap {
		return Execution{Duration: s.timeAt(cMax), Power: pw,
			MemPower: s.memPowerAt(&d, cMax), ClockFrac: cMax, Capped: cMax < 1}
	}
	if pw := s.powerAt(&d, cMin); pw > cap {
		// Cap unachievable: run at the floor, overshooting.
		return Execution{Duration: s.timeAt(cMin), Power: pw,
			MemPower: s.memPowerAt(&d, cMin), ClockFrac: cMin, Capped: true}
	}
	lo, hi := cMin, cMax
	for i := 0; i < 48; i++ {
		mid := (lo + hi) / 2
		if s.powerAt(&d, mid) <= cap {
			lo = mid
		} else {
			hi = mid
		}
	}
	return Execution{Duration: s.timeAt(lo), Power: s.powerAt(&d, lo),
		MemPower: s.memPowerAt(&d, lo), ClockFrac: lo, Capped: true}
}
