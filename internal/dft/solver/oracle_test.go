package solver

import (
	"fmt"

	"vasppower/internal/dft/method"
	"vasppower/internal/hw/node"
	"vasppower/internal/interconnect"
)

// The step-by-step executor Run was before it became Prepare +
// Prepared.Run, retained as the oracle the prepared engine is pinned
// against bit for bit (prepared_test.go): it resolves and solves every
// GPU step on every device through GPU.Run and builds every step's
// powers afresh, with no per-kernel deduplication or reuse.

// oracleJob carries the correlated whole-run jitter factor, drawn once
// per runOracle call.
type oracleJob struct {
	Job
	runScale float64
}

// runOracle executes the job step by step, appending to each node's
// traces (callers reset traces between repeats), and returns the
// summary.
func runOracle(j Job) (Result, error) {
	job := oracleJob{Job: j}
	if job.Schedule == nil || len(job.Schedule.Steps) == 0 {
		return Result{}, fmt.Errorf("solver: empty schedule")
	}
	if len(job.Nodes) == 0 {
		return Result{}, fmt.Errorf("solver: no nodes")
	}
	if job.Decomp.Nodes != len(job.Nodes) {
		return Result{}, fmt.Errorf("solver: decomposition spans %d nodes but %d allocated",
			job.Decomp.Nodes, len(job.Nodes))
	}
	res := Result{PhaseDurations: make(map[string]float64)}
	if job.Noise != nil {
		job.runScale = job.Noise.LogNormal(0, runJitterSigma)
	} else {
		job.runScale = 1
	}
	start := job.Nodes[0].TraceDuration()
	for _, st := range job.Schedule.Steps {
		dur := executeStep(job, st)
		res.PhaseDurations[st.Phase] += dur
		res.Steps++
	}
	res.Runtime = job.Nodes[0].TraceDuration() - start
	for _, n := range job.Nodes {
		res.EnergyJ += n.TotalTrace().EnergyBetween(start, n.TraceDuration())
	}
	return res, nil
}

// jitter returns the multiplicative noise factor for one step: the
// run-correlated factor times independent per-step noise.
func jitter(job oracleJob) float64 {
	if job.Noise == nil {
		return 1
	}
	return job.runScale * job.Noise.LogNormal(0, stepJitterSigma)
}

// executeStep runs one step across all nodes (which proceed in
// lockstep — the benchmarks are load-balanced by construction, §III-A)
// and returns its wall duration.
func executeStep(job oracleJob, st method.Step) float64 {
	switch st.Kind {
	case method.StepGPU:
		return executeGPUStep(job, st)
	case method.StepCPU:
		return executeCPUStep(job, st)
	case method.StepComm:
		return executeCommStep(job, st)
	case method.StepHost:
		return executeHostStep(job, st)
	}
	panic(fmt.Sprintf("solver: unknown step kind %v", st.Kind))
}

func executeGPUStep(job oracleJob, st method.Step) float64 {
	type exec struct {
		dur   float64
		power float64
		memW  float64
	}
	// Every GPU runs the same kernel; durations differ only through
	// cap solving against device-specific power curves. The step ends
	// at the slowest device (implicit barrier).
	var execs [][]exec
	maxDur := 0.0
	for _, n := range job.Nodes {
		row := make([]exec, n.NumGPUs())
		for i, g := range n.GPUs {
			ex := g.Run(st.GPU)
			row[i] = exec{dur: ex.Duration, power: ex.Power, memW: ex.MemPower}
			if ex.Duration > maxDur {
				maxDur = ex.Duration
			}
		}
		execs = append(execs, row)
	}
	maxDur *= jitter(job)
	for ni, n := range job.Nodes {
		cp := node.ComponentPowers{
			CPU:     n.CPU.HostOrchestrationPower(),
			Mem:     memPower(n, st.MemActivity),
			GPUs:    make([]float64, n.NumGPUs()),
			GPUMems: make([]float64, n.NumGPUs()),
		}
		for i := range n.GPUs {
			// Devices that finish early wait at the barrier near idle;
			// fold that into a duty-cycled average power. The HBM
			// domain duty-cycles the same way (self-refresh while
			// waiting).
			e := execs[ni][i]
			busy := e.dur / maxDur
			if busy > 1 {
				busy = 1
			}
			cp.GPUs[i] = e.power*busy + n.GPUs[i].IdlePower()*(1-busy)
			cp.GPUMems[i] = e.memW*busy + n.GPUs[i].HBMIdlePower()*(1-busy)
		}
		n.Record(maxDur, cp)
	}
	return maxDur
}

func executeCPUStep(job oracleJob, st method.Step) float64 {
	maxDur := 0.0
	type exec struct{ dur, power float64 }
	var execs []exec
	for _, n := range job.Nodes {
		ex := n.CPU.Run(st.CPU)
		execs = append(execs, exec{ex.Duration, ex.Power})
		if ex.Duration > maxDur {
			maxDur = ex.Duration
		}
	}
	maxDur *= jitter(job)
	for ni, n := range job.Nodes {
		cp := n.Idle()
		cp.CPU = execs[ni].power
		cp.Mem = memPower(n, st.MemActivity)
		n.Record(maxDur, cp)
	}
	return maxDur
}

func executeCommStep(job oracleJob, st method.Step) float64 {
	var topo interconnect.Topology
	switch st.Comm.Scope {
	case method.ScopeGroup:
		topo = job.Decomp.GroupTopology
	default:
		topo = job.Decomp.Topology
	}
	var dur float64
	switch st.Comm.Op {
	case method.CommAllReduce:
		dur = job.Fabric.AllReduce(st.Comm.Bytes, topo)
	case method.CommAllToAll:
		dur = job.Fabric.AllToAll(st.Comm.Bytes/float64(topo.Ranks()), topo)
	case method.CommBroadcast:
		dur = job.Fabric.Broadcast(st.Comm.Bytes, topo)
	default:
		panic(fmt.Sprintf("solver: unknown comm op %v", st.Comm.Op))
	}
	dur *= jitter(job)
	for _, n := range job.Nodes {
		cp := n.Idle()
		cp.CPU = n.CPU.HostOrchestrationPower()
		cp.Mem = memPower(n, st.MemActivity)
		for i := range cp.GPUs {
			cp.GPUs[i] += commGPUPower
		}
		n.Record(dur, cp)
	}
	return dur
}

func executeHostStep(job oracleJob, st method.Step) float64 {
	dur := st.HostSeconds * jitter(job)
	for _, n := range job.Nodes {
		cp := n.Idle()
		cp.CPU = n.CPU.HostOrchestrationPower()
		cp.Mem = memPower(n, st.MemActivity)
		n.Record(dur, cp)
	}
	return dur
}
