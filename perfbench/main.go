// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It runs one workload per process through the program's
// public packages and prints, as the last line of standard output, one
// JSON object with the verification outcome and the metrics:
//
//	perfbench --workload study --seed 1 --seconds 8 --trace 0
//
// Workloads: study, study-warm, facility, serve-mix (see NOTES.md for
// why each exists and which layers it stresses). With --trace 0 the
// run sets up several times (setup_s is their median), then repeats a
// fixed pass of work about --seconds' worth of times (at least three)
// and reports medians over the passes, with times scaled to a
// reference host speed (calib.go). With --trace 1 it runs the traced
// layer suite instead and prints the per-layer metrics.
//
// --report N runs every workload (or the one named by --workload) N
// times with seeds 1..N as child processes and prints, per metric, the
// median, quartiles, quartile spread and range over those runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	// minPasses is the fewest timed passes a run makes, whatever
	// --seconds says, so every median has at least three samples.
	minPasses = 3
)

// setupReps is how many times a run sets each workload up; setup_s is
// the median, so one slow set-up cannot move it. The study set-ups are
// whole cold passes (4–6 s each), the others about a second.
var setupReps = map[string]int{
	"study":      3,
	"study-warm": 3,
	"facility":   5,
	"serve-mix":  5,
}

// passSeconds is each workload's nominal pass length on a 2-vCPU
// host. A run makes round(--seconds / passSeconds) passes (at
// least minPasses): the pass count, and so the work, is fixed by the
// arguments rather than by how fast the host happens to be, which
// keeps every percentile's rank fixed.
var passSeconds = map[string]float64{
	"study":      4.5,
	"study-warm": 0.9,
	"facility":   0.55,
	"serve-mix":  3.5,
}

// workers is the worker and client-connection count every workload
// uses. The benchmark runs on one CPU (main sets GOMAXPROCS to 1): on a
// shared 2-vCPU guest two busy CPUs gave a fixed loop twice the spread
// of one, and the host probe (calib.go) reads the speed of the CPU the
// work runs on. A change's effect on parallel speed-up is therefore not
// measured here; par.busy_frac in the traced run reports on the pool.
const workers = 1

var workloadNames = []string{"study", "study-warm", "facility", "serve-mix"}

// metric is one named value as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "how long the timed passes run")
	trace := flag.Int("trace", 0, "1 = run the traced layer suite and print per-layer metrics")
	spans := flag.String("spans", ".bench_build/spans.jsonl", "where the traced suite writes its spans")
	report := flag.Int("report", 0, "run each workload this many times (seeds 1..N) and print steadiness statistics")
	flag.Parse()
	runtime.GOMAXPROCS(1)

	if *report > 0 {
		names := workloadNames
		if *name != "" {
			names = []string{*name}
		}
		if err := runReport(names, *report, *seconds); err != nil {
			fatal(err)
		}
		return
	}
	if !validWorkload(*name) {
		fatal(fmt.Errorf("unknown workload %q (have: %s)", *name, strings.Join(workloadNames, ", ")))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("--seconds must be positive and --trace 0 or 1"))
	}

	var err error
	if host, err = startProbe(); err != nil {
		fatal(err)
	}
	var res result
	if *trace == 1 {
		res, err = runTraced(*seed, *spans)
	} else {
		passes := max(minPasses, int(math.Round(*seconds/passSeconds[*name])))
		res, err = runWorkload(*name, *seed, passes)
	}
	host.close()
	if err != nil {
		fatal(err)
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fatal(fmt.Errorf("metric %s is not finite", k))
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func validWorkload(name string) bool {
	for _, w := range workloadNames {
		if w == name {
			return true
		}
	}
	return false
}

// bench is one workload. setup discards any state from an earlier
// set-up and builds it afresh. Each timed pass p is prepare (untimed:
// cache resets, input generation), pass (timed: one fixed unit of
// work) and check (untimed: verification of what pass produced).
type bench interface {
	setup() error
	prepare(p int) error
	pass(p int) error
	check(p int) (passOut, error)
	close()
}

// passOut is what one timed pass did: work units completed (the
// numerator of ops_per_s), per-operation latencies (nil: the pass is
// the operation, as for the study, whose runners are too unlike one
// another for their percentiles to mean anything), and how many
// operations were attempted and verified.
type passOut struct {
	work      int
	latMS     []float64
	attempted int64
	ok        int64
}

func newBench(name string, seed uint64) bench {
	switch name {
	case "study":
		return newStudy(false)
	case "study-warm":
		return newStudy(true)
	case "facility":
		return newFacility(seed)
	default:
		return newServeMix(seed, nil)
	}
}

// runWorkload is the untraced end-to-end run. Each phase's times are
// scaled to the reference host speed by the speed sampled during it
// (calib.go); the measured medians and the host's speed go to a line
// of their own before the result.
func runWorkload(name string, seed uint64, passes int) (result, error) {
	b := newBench(name, seed)
	defer b.close()

	var setups, setupsRaw, speeds []float64
	for i := 0; i < setupReps[name]; i++ {
		st, err := timePass(b.setup)
		if err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, st.wall*st.speed)
		setupsRaw = append(setupsRaw, st.wall)
		speeds = append(speeds, st.speed)
	}

	var (
		wall, cpu, alloc, rate []float64
		wallRaw, cpuRaw, lat   []float64
		attempted, ok          int64
	)
	for p := 0; p < passes; p++ {
		if err := b.prepare(p); err != nil {
			return result{}, fmt.Errorf("%s pass %d: %w", name, p, err)
		}
		st, err := timePass(func() error { return b.pass(p) })
		if err != nil {
			return result{}, fmt.Errorf("%s pass %d: %w", name, p, err)
		}
		out, err := b.check(p)
		if err != nil {
			return result{}, fmt.Errorf("%s pass %d: %w", name, p, err)
		}
		w := st.wall * st.speed
		wall = append(wall, w)
		wallRaw = append(wallRaw, st.wall)
		speeds = append(speeds, st.speed)
		cpu = append(cpu, st.cpu*st.speed)
		cpuRaw = append(cpuRaw, st.cpu)
		alloc = append(alloc, st.allocMB)
		rate = append(rate, float64(out.work)/w)
		if out.latMS == nil {
			lat = append(lat, w*1e3)
		}
		for _, l := range out.latMS {
			lat = append(lat, l*st.speed)
		}
		attempted += out.attempted
		ok += out.ok
	}
	fmt.Printf("measured: setup_s=%.4f wall_s=%.4f cpu_s=%.4f speed=%.3f speed_min=%.3f speed_max=%.3f passes=%d\n",
		median(setupsRaw), median(wallRaw), median(cpuRaw), median(speeds), slices.Min(speeds), slices.Max(speeds), passes)
	return result{
		Correct:   ok == attempted && attempted > 0,
		Attempted: attempted,
		Failed:    attempted - ok,
		Metrics: map[string]metric{
			"setup_s":   {median(setups), "s"},
			"wall_s":    {median(wall), "s"},
			"cpu_s":     {median(cpu), "s"},
			"alloc_mb":  {median(alloc), "MB"},
			"rss_mb":    {peakRSSMB(), "MB"},
			"ok_frac":   {float64(ok) / float64(max(attempted, 1)), "ratio"},
			"ops_per_s": {median(rate), "1/s"},
			"p50_ms":    {percentile(lat, 50), "ms"},
			"p90_ms":    {percentile(lat, 90), "ms"},
		},
	}, nil
}

// endToEndNames lists the metrics runWorkload prints.
func endToEndNames() []string {
	return []string{"setup_s", "wall_s", "cpu_s", "alloc_mb", "rss_mb", "ok_frac", "ops_per_s", "p50_ms", "p90_ms"}
}

// passStats is one timed phase as the process saw it. wall and cpu
// are measured; speed scales them to the reference host speed.
type passStats struct {
	wall, cpu, allocMB float64
	speed              float64
	gcCycles           uint32
	gcPauseMS          float64
}

// timePass collects garbage, then times fn: wall clock, process CPU
// (user+sys), Go heap bytes allocated, GC activity and the host's
// speed during it (calib.go).
func timePass(fn func() error) (passStats, error) {
	runtime.GC()
	r0 := host.read()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0).Seconds()
	c1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	speed := host.speedSince(r0)
	return passStats{
		wall:      wall,
		cpu:       c1 - c0,
		allocMB:   float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
		speed:     speed,
		gcCycles:  m1.NumGC - m0.NumGC,
		gcPauseMS: float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
	}, err
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// subSeed derives the independent input seed for one purpose (a
// splitmix64 step), so each workload's inputs change with --seed
// without sharing a stream.
func subSeed(seed, purpose uint64) uint64 {
	z := seed + purpose*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile is the linear-interpolation percentile of xs (0 for an
// empty slice).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
