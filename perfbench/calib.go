package main

import (
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed calibration.
//
// The benchmark runs on shared virtual CPUs whose speed is not steady.
// On the 2-vCPU Xeon guest it was built on, a fixed compute loop runs
// at one of two speeds, about 1.9× apart, flipping every 0.2–2 s, and
// the share of time spent at the fast one moved between about 20% and
// 75% from one minute to the next; memory latency drifts on its own,
// with the neighbours' traffic. Raw times move with the host by more
// than any bound worth holding a change to.
//
// So a probe goroutine samples the host's speed all through a run:
// every probeEvery it times a short fixed probe, a compute part and a
// pointer chase. Each timed phase is scaled by the mean probe time
// during it to the host speed at which the probe takes probeRefUS:
//
//	normalised = measured × probeRefUS / mean probe time in the phase
//
// The probe needs both parts. A compute-only probe missed the facility
// workload's run-to-run drift entirely (its reading moved 3% while the
// passes moved 15%), and the chase alone barely sees the compute
// speed's flips (1.08× against 1.9×).
//
// The probe is the benchmark's own code and lives outside the Go heap,
// so a change to the program moves the normalised numbers as much as
// the measured ones; only the host's speed drops out. The measured
// numbers are printed beside the normalised ones.

// probeRefUS defines the reference host speed: the one at which the
// probe takes this long. It is a unit, not a measurement.
const probeRefUS = 1000.0

// probeEvery is the sampling period. The probe costs about 5% of the
// CPU at this period, the same share on every commit.
const probeEvery = 20 * time.Millisecond

const (
	computeLen  = 1 << 13 // float64s the compute part walks (64 KiB)
	computeReps = 4       // passes over them per probe
	chaseLen    = 1 << 21 // int32 links of the pointer chase (8 MiB)
	chaseSteps  = 5000
)

// hostProbe is the sampler: running sums of probe time and count.
type hostProbe struct {
	ns, n atomic.Int64
	stop  chan struct{}
	wg    sync.WaitGroup

	mem     []byte
	compute []float64
	chase   []int32
	pos     int32
	sink    float64
}

// startProbe maps the probe's buffers outside the Go heap (so they do
// not change the program's GC pacing) and starts sampling.
func startProbe() (*hostProbe, error) {
	mem, err := syscall.Mmap(-1, 0, chaseLen*4+computeLen*8,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	h := &hostProbe{
		mem:     mem,
		chase:   unsafe.Slice((*int32)(unsafe.Pointer(&mem[0])), chaseLen),
		compute: unsafe.Slice((*float64)(unsafe.Pointer(&mem[chaseLen*4])), computeLen),
		stop:    make(chan struct{}),
	}
	// One random cycle through every link, so each step misses cache.
	perm := rand.New(rand.NewPCG(1, 2)).Perm(chaseLen)
	for i, p := range perm {
		h.chase[p] = int32(perm[(i+1)%chaseLen])
	}
	h.wg.Add(1)
	go h.loop()
	return h, nil
}

// loop samples on a thread of its own and times each probe in that
// thread's CPU time, so neither the Go scheduler (a GC stack scan
// pre-empting the probe, the workload's goroutines running in between)
// nor the OS running another thread adds to a reading: only the speed
// at which the CPU executes the probe does.
func (h *hostProbe) loop() {
	defer h.wg.Done()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t := time.NewTicker(probeEvery)
	defer t.Stop()
	for {
		select {
		case <-h.stop:
			return
		case <-t.C:
			t0 := threadCPU()
			h.probe()
			h.ns.Add(threadCPU() - t0)
			h.n.Add(1)
		}
	}
}

// probe is the fixed work: exp-heavy float math (compute-bound, like
// the KDE and the solver) and a dependent pointer chase through 8 MiB
// (latency-bound, like the scheduler's and the caches' lookups).
func (h *hostProbe) probe() {
	xs := h.compute
	s := 0.0
	for r := 0; r < computeReps; r++ {
		for i := range xs {
			xs[i] = math.Exp(float64(i%97)*1e-3) + xs[(i*31+r)&(computeLen-1)]*0.5
			s += xs[i]
		}
	}
	p := h.pos
	for i := 0; i < chaseSteps; i++ {
		p = h.chase[p]
	}
	h.pos = p
	h.sink += s
}

// threadCPU is the calling thread's CPU time in ns.
func threadCPU() int64 {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// reading is a snapshot of the sampler's sums.
type reading struct{ ns, n int64 }

func (h *hostProbe) read() reading {
	if h == nil {
		return reading{}
	}
	return reading{h.ns.Load(), h.n.Load()}
}

// speedSince is the factor that scales a phase begun at r to the
// reference host speed: probeRefUS over the mean probe time since r
// (1 when no probe ran in between).
func (h *hostProbe) speedSince(r reading) float64 {
	now := h.read()
	if now.n == r.n {
		return 1
	}
	return probeRefUS / (float64(now.ns-r.ns) / float64(now.n-r.n) / 1e3)
}

func (h *hostProbe) close() {
	if h != nil {
		close(h.stop)
		h.wg.Wait()
		syscall.Munmap(h.mem)
	}
}

// host is the process's sampler; nil (as in tests) reads as the
// reference speed.
var host *hostProbe
