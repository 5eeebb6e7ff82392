package solver

import (
	"fmt"

	"vasppower/internal/dft/method"
	"vasppower/internal/hw/gpu"
	"vasppower/internal/hw/node"
	"vasppower/internal/interconnect"
	"vasppower/internal/rng"
)

// Prepared is the cap-independent half of a job, done once so any
// number of runs — repeats, cap points, clock points — can share it:
// the validated schedule, every unique GPU work descriptor resolved
// through the (shared) platform efficiency table into its hoisted
// gpu.CapSolver, CPU-step executions, collective durations priced on
// the fabric, and the per-step component powers that do not depend on
// the GPUs' cap state. What remains per Run is exactly the
// cap-dependent part — the cap solver's clock decision per unique
// (kernel, device) pair, the jitter draws, and trace recording.
//
// The split leans on a structural fact of the step-by-step execution:
// a step's wall time and recorded powers depend on the cap only
// through gpu.Execution values, and those depend only on (kernel,
// device, device cap state) — never on trace history or step position.
// So a table of executions per unique kernel × device, rebuilt when
// the cap changes, reproduces the step-by-step arithmetic exactly; the
// differential tests in prepared_test.go pin every float against the
// retained oracle.
//
// A Prepared is not safe for concurrent use.
type Prepared struct {
	job Job

	// devices lists every GPU of the job node-major; node ni owns
	// devices[devOff[ni]:devOff[ni+1]].
	devices []*gpu.GPU
	devOff  []int

	// solvers[k] carries unique kernel k's hoisted cap-solver
	// constants; execs[k*len(devices)+d] is its execution on device d
	// under the current cap/clock state, rebuilt lazily after a Set*
	// call.
	solvers    []gpu.CapSolver
	execs      []execution
	execsValid bool

	steps []prepStep

	// Per-node cap-independent constants.
	hostOrchW []float64   // CPU host-orchestration power
	gpuIdle   [][]float64 // per-device board idle power
	hbmIdle   [][]float64 // per-device HBM-domain idle share
	commGPUs  [][]float64 // gpuIdle + commGPUPower, precomputed

	// Reusable scratch, so steady-state Run calls allocate nothing.
	gpuCP  []node.ComponentPowers // per node, slices preallocated
	phases map[string]float64
}

// execution is the part of a gpu.Execution a run records.
type execution struct {
	dur, power, memW float64
}

// prepStep is one schedule step with its cap-independent work done.
type prepStep struct {
	kind   method.StepKind
	phase  string
	kernel int     // GPU steps: index into solvers
	preDur float64 // pre-jitter wall duration (CPU barrier max, comm, host)
	// memW is the per-node DDR power of a GPU step (the rest of a GPU
	// step's powers are cap-dependent and assembled per Run).
	memW []float64
	// cps carries the per-node component powers of CPU/comm/host
	// steps, which are fully cap-independent. Record copies values, so
	// sharing these across Run calls is safe.
	cps []node.ComponentPowers
}

// Prepare validates the job and performs every cap-independent piece
// of its execution. The job's Noise field is ignored — each Run call
// takes its own stream, which is what lets one Prepared serve many
// repeats and cap points.
func Prepare(job Job) (*Prepared, error) {
	if job.Schedule == nil || len(job.Schedule.Steps) == 0 {
		return nil, fmt.Errorf("solver: empty schedule")
	}
	if len(job.Nodes) == 0 {
		return nil, fmt.Errorf("solver: no nodes")
	}
	if job.Decomp.Nodes != len(job.Nodes) {
		return nil, fmt.Errorf("solver: decomposition spans %d nodes but %d allocated",
			job.Decomp.Nodes, len(job.Nodes))
	}
	job.Noise = nil
	p := &Prepared{job: job}
	nn := len(job.Nodes)
	p.hostOrchW = make([]float64, nn)
	p.gpuIdle = make([][]float64, nn)
	p.hbmIdle = make([][]float64, nn)
	p.commGPUs = make([][]float64, nn)
	p.gpuCP = make([]node.ComponentPowers, nn)
	p.devOff = make([]int, nn+1)

	// One efficiency table and one spec must serve every device: the
	// per-kernel resolution and cap-solver constants below are hoisted
	// out of the per-device loop on that basis.
	var model *gpu.EfficiencyModel
	for ni, n := range job.Nodes {
		p.hostOrchW[ni] = n.CPU.HostOrchestrationPower()
		g := n.NumGPUs()
		p.gpuIdle[ni] = make([]float64, g)
		p.hbmIdle[ni] = make([]float64, g)
		p.commGPUs[ni] = make([]float64, g)
		p.devices = append(p.devices, n.GPUs...)
		p.devOff[ni+1] = len(p.devices)
		for gi, dev := range n.GPUs {
			p.gpuIdle[ni][gi] = dev.IdlePower()
			p.hbmIdle[ni][gi] = dev.HBMIdlePower()
			p.commGPUs[ni][gi] = dev.IdlePower() + commGPUPower
			if model == nil {
				model = dev.Model()
			} else if dev.Model() != model {
				return nil, fmt.Errorf("solver: nodes mix efficiency tables (prepare requires one table per job)")
			} else if dev.Spec != p.devices[0].Spec {
				return nil, fmt.Errorf("solver: nodes mix GPU models (prepare requires one spec per job)")
			}
		}
		p.gpuCP[ni] = node.ComponentPowers{
			GPUs:    make([]float64, g),
			GPUMems: make([]float64, g),
		}
	}

	kernelIdx := make(map[gpu.Kernel]int)
	p.steps = make([]prepStep, 0, len(job.Schedule.Steps))
	for _, st := range job.Schedule.Steps {
		ps := prepStep{kind: st.Kind, phase: st.Phase, kernel: -1}
		switch st.Kind {
		case method.StepGPU:
			ki, ok := kernelIdx[st.GPU]
			if !ok {
				if err := st.GPU.Validate(); err != nil {
					return nil, err
				}
				if model == nil {
					return nil, fmt.Errorf("solver: GPU step %q on a job with no GPUs", st.Label)
				}
				prof, err := model.Resolve(st.GPU)
				if err != nil {
					return nil, err
				}
				ki = len(p.solvers)
				kernelIdx[st.GPU] = ki
				p.solvers = append(p.solvers, gpu.NewCapSolver(p.devices[0].Spec, st.GPU, prof))
			}
			ps.kernel = ki
			ps.memW = make([]float64, nn)
			for ni, n := range job.Nodes {
				ps.memW[ni] = memPower(n, st.MemActivity)
			}
		case method.StepCPU:
			ps.cps = make([]node.ComponentPowers, nn)
			maxDur := 0.0
			for ni, n := range job.Nodes {
				ex := n.CPU.Run(st.CPU)
				if ex.Duration > maxDur {
					maxDur = ex.Duration
				}
				ps.cps[ni] = node.ComponentPowers{
					CPU:  ex.Power,
					Mem:  memPower(n, st.MemActivity),
					GPUs: p.gpuIdle[ni],
				}
			}
			ps.preDur = maxDur
		case method.StepComm:
			var topo interconnect.Topology
			switch st.Comm.Scope {
			case method.ScopeGroup:
				topo = job.Decomp.GroupTopology
			default:
				topo = job.Decomp.Topology
			}
			switch st.Comm.Op {
			case method.CommAllReduce:
				ps.preDur = job.Fabric.AllReduce(st.Comm.Bytes, topo)
			case method.CommAllToAll:
				ps.preDur = job.Fabric.AllToAll(st.Comm.Bytes/float64(topo.Ranks()), topo)
			case method.CommBroadcast:
				ps.preDur = job.Fabric.Broadcast(st.Comm.Bytes, topo)
			default:
				return nil, fmt.Errorf("solver: unknown comm op %v", st.Comm.Op)
			}
			ps.cps = make([]node.ComponentPowers, nn)
			for ni, n := range job.Nodes {
				ps.cps[ni] = node.ComponentPowers{
					CPU:  p.hostOrchW[ni],
					Mem:  memPower(n, st.MemActivity),
					GPUs: p.commGPUs[ni],
				}
			}
		case method.StepHost:
			ps.preDur = st.HostSeconds
			ps.cps = make([]node.ComponentPowers, nn)
			for ni, n := range job.Nodes {
				ps.cps[ni] = node.ComponentPowers{
					CPU:  p.hostOrchW[ni],
					Mem:  memPower(n, st.MemActivity),
					GPUs: p.gpuIdle[ni],
				}
			}
		default:
			return nil, fmt.Errorf("solver: unknown step kind %v", st.Kind)
		}
		p.steps = append(p.steps, ps)
	}

	p.execs = make([]execution, len(p.solvers)*len(p.devices))
	return p, nil
}

// SetGPUPowerLimit applies one board power cap to every GPU of the
// job's nodes (w <= 0 restores the default TDP limit) and invalidates
// the execution table. Errors mirror the per-device SetPowerLimit
// range check.
func (p *Prepared) SetGPUPowerLimit(w float64) error {
	p.execsValid = false
	for _, n := range p.job.Nodes {
		if w <= 0 {
			n.ResetGPUPowerLimits()
			continue
		}
		if err := n.SetGPUPowerLimits(w); err != nil {
			return err
		}
	}
	return nil
}

// SetGPUClockLimitMHz locks one maximum SM clock on every GPU
// (mhz <= 0 unlocks) and invalidates the execution table — the DVFS
// axis of the sweep engine.
func (p *Prepared) SetGPUClockLimitMHz(mhz float64) error {
	p.execsValid = false
	for _, n := range p.job.Nodes {
		if mhz <= 0 {
			n.ResetGPUClockLimits()
			continue
		}
		if err := n.SetGPUClockLimits(mhz); err != nil {
			return err
		}
	}
	return nil
}

// buildExecs runs the cap solver once per unique kernel on every
// device under the current cap/clock state — the only cap-dependent
// computation of a run besides jitter and recording.
func (p *Prepared) buildExecs() {
	nd := len(p.devices)
	for ki := range p.solvers {
		s := &p.solvers[ki]
		row := p.execs[ki*nd : (ki+1)*nd]
		for di, dev := range p.devices {
			ex := s.Solve(dev)
			row[di] = execution{ex.Duration, ex.Power, ex.MemPower}
		}
	}
	p.execsValid = true
}

// Run executes the prepared job once, appending to each node's traces
// (callers reset traces between repeats), drawing jitter from noise
// (nil runs noise-free), and returns the summary. The jitter draw
// order is one whole-run factor, then one per-step factor in step
// order. The Result's EnergyJ is left zero: callers that report energy
// read it off the traces with Energy, once per run they keep.
//
// The returned Result's PhaseDurations map is reused by the next Run
// call on this Prepared; callers keeping it across runs must copy it.
func (p *Prepared) Run(noise *rng.Stream) Result {
	if !p.execsValid {
		p.buildExecs()
	}
	if p.phases == nil {
		p.phases = make(map[string]float64, 8)
	}
	clear(p.phases)
	res := Result{PhaseDurations: p.phases}
	runScale := 1.0
	if noise != nil {
		runScale = noise.LogNormal(0, runJitterSigma)
	}
	nodes := p.job.Nodes
	start := nodes[0].TraceDuration()
	for si := range p.steps {
		st := &p.steps[si]
		j := 1.0
		if noise != nil {
			j = runScale * noise.LogNormal(0, stepJitterSigma)
		}
		var dur float64
		switch st.kind {
		case method.StepGPU:
			// Every GPU runs the same kernel; the step ends at the
			// slowest device (implicit barrier).
			nd := len(p.devices)
			execs := p.execs[st.kernel*nd : (st.kernel+1)*nd]
			maxDur := 0.0
			for i := range execs {
				if execs[i].dur > maxDur {
					maxDur = execs[i].dur
				}
			}
			maxDur *= j
			for ni, n := range nodes {
				cp := &p.gpuCP[ni]
				cp.CPU = p.hostOrchW[ni]
				cp.Mem = st.memW[ni]
				row := execs[p.devOff[ni]:p.devOff[ni+1]]
				idle := p.gpuIdle[ni]
				hbm := p.hbmIdle[ni]
				for i := range row {
					// Devices that finish early wait at the barrier near
					// idle; fold that into a duty-cycled average power.
					// The HBM domain duty-cycles the same way
					// (self-refresh while waiting).
					busy := row[i].dur / maxDur
					if busy > 1 {
						busy = 1
					}
					cp.GPUs[i] = row[i].power*busy + idle[i]*(1-busy)
					cp.GPUMems[i] = row[i].memW*busy + hbm[i]*(1-busy)
				}
				n.Record(maxDur, *cp)
			}
			dur = maxDur
		default:
			dur = st.preDur * j
			for ni, n := range nodes {
				n.Record(dur, st.cps[ni])
			}
		}
		res.PhaseDurations[st.phase] += dur
		res.Steps++
	}
	res.Runtime = nodes[0].TraceDuration() - start
	return res
}
