// Package solver executes a method schedule on simulated hardware: it
// walks the step list in virtual time, runs each GPU kernel on every
// allocated GPU (under whatever power limit is currently set), prices
// collectives on the fabric, runs CPU-only phases on the host, and
// records synchronized per-component power traces on every node —
// exactly the data the paper's telemetry pipeline collects.
package solver

import (
	"vasppower/internal/dft/method"
	"vasppower/internal/dft/parallel"
	"vasppower/internal/hw/node"
	"vasppower/internal/interconnect"
	"vasppower/internal/rng"
)

// commGPUPower is the extra per-GPU draw above idle while NCCL moves
// data (copy engines + NIC DMA).
const commGPUPower = 18

// stepJitterSigma is the multiplicative log-normal noise on every
// step duration (OS noise, congestion). Independent per step, it
// averages out over thousands of steps, so a correlated whole-run
// factor (runJitterSigma) models the slower disturbances — thermal
// state, neighbor congestion, straggling components — that make whole
// runs differ by a few percent. The combination is what the paper's
// five-repeat/min-runtime protocol exists to tame (§III-B.1).
const (
	stepJitterSigma = 0.008
	runJitterSigma  = 0.012
)

// Job binds a schedule to hardware.
type Job struct {
	Name     string
	Schedule *method.Schedule
	Nodes    []*node.Node
	Decomp   parallel.Decomposition
	Fabric   interconnect.Fabric
	// Noise drives run-to-run jitter; nil runs noise-free.
	Noise *rng.Stream
}

// Result summarizes one executed job.
type Result struct {
	Runtime        float64            // wall seconds
	EnergyJ        float64            // node-level energy over all nodes
	PhaseDurations map[string]float64 // wall seconds per phase label
	Steps          int
}

// Run executes the job once — Prepare, then one Prepared.Run drawing
// from the job's Noise stream — appending to each node's traces
// (callers reset traces between repeats), and returns the summary with
// the run's node-sensor energy.
func Run(job Job) (Result, error) {
	p, err := Prepare(job)
	if err != nil {
		return Result{}, err
	}
	start := job.Nodes[0].TraceDuration()
	res := p.Run(job.Noise)
	res.EnergyJ = Energy(job.Nodes, start)
	return res, nil
}

// Energy returns the node-sensor energy the nodes recorded from start
// to the end of their traces. It reads each node's memoized
// TotalTrace, so a profiling pass over the same traces reuses the sum.
func Energy(nodes []*node.Node, start float64) float64 {
	var e float64
	for _, n := range nodes {
		e += n.TotalTrace().EnergyBetween(start, n.TraceDuration())
	}
	return e
}

// memPower interpolates DDR power between idle and active with the
// step's memory-activity level.
func memPower(n *node.Node, activity float64) float64 {
	return n.MemIdlePower() + (n.MemActivePower()-n.MemIdlePower())*activity
}
