package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"

	"vasppower/internal/core"
	"vasppower/internal/sched"
	"vasppower/internal/workloads"
)

func TestScriptSameSeedSameRequests(t *testing.T) {
	n := len(warmBodies())
	a, b := makeScript(7, 3, n), makeScript(7, 3, n)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and pass gave different scripts")
	}
	if reflect.DeepEqual(a, makeScript(8, 3, n)) {
		t.Fatal("different seeds gave the same script")
	}
	counts := map[int]int{}
	for _, r := range a {
		counts[r.class]++
	}
	want := map[int]int{classWarm: 1974, classCold: 105, classSweep: 21}
	if !reflect.DeepEqual(counts, want) {
		t.Fatalf("class counts %v, want %v", counts, want)
	}
}

func TestColdRequestsNeverRepeat(t *testing.T) {
	n := len(warmBodies())
	seen := map[string]bool{}
	for p := 0; p < 30; p++ {
		for _, r := range makeScript(7, p, n) {
			if r.class == classWarm {
				continue
			}
			if seen[string(r.body)] {
				t.Fatalf("pass %d repeats cold body %s", p, r.body)
			}
			seen[string(r.body)] = true
		}
	}
}

func drain(src *sched.SyntheticStream, n int) []sched.Job {
	var jobs []sched.Job
	for len(jobs) < n {
		j, ok := src.Next()
		if !ok {
			break
		}
		jobs = append(jobs, j)
	}
	return jobs
}

func TestJobStreamSameSeedSameJobs(t *testing.T) {
	a, b := drain(facilityJobStream(7), 2000), drain(facilityJobStream(7), 2000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different job streams")
	}
	if reflect.DeepEqual(a, drain(facilityJobStream(8), 2000)) {
		t.Fatal("different seeds gave the same job stream")
	}
}

// TestMetricNames checks every metric name the benchmark can print
// against the allowed alphabet, and that BENCHMARK.json declares
// exactly the metrics the code emits.
func TestMetricNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	e2e, layers := endToEndNames(), perLayerNames()
	for _, n := range append(append([]string(nil), e2e...), layers...) {
		if !valid.MatchString(n) {
			t.Errorf("metric name %q", n)
		}
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		sort.Strings(out)
		return out
	}
	sorted := func(xs []string) []string {
		out := append([]string(nil), xs...)
		sort.Strings(out)
		return out
	}
	if got, want := names(spec.EndToEnd), sorted(e2e); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json end_to_end %v, code emits %v", got, want)
	}
	if got, want := names(spec.PerLayer), sorted(layers); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json per_layer %v, code emits %v", got, want)
	}
}

func TestEndToEndRunEmitsDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the facility workload")
	}
	res, err := runWorkload("facility", 3, minPasses)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("facility run not correct: %+v", res)
	}
	var got []string
	for k, m := range res.Metrics {
		got = append(got, k)
		if m.Value <= 0 {
			t.Errorf("%s = %v, want > 0", k, m.Value)
		}
	}
	sort.Strings(got)
	want := append([]string(nil), endToEndNames()...)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("metrics %v, want %v", got, want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if got != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles = %v", got)
	}
}

// replayTolerance is how far the traced replay's summed layer self
// times may sit from an untraced measurement of the same spec, as a
// share of the untraced time (both the fastest of several tries).
const replayTolerance = 0.3

func TestReplaySelfTimesMatchUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("times real measurements")
	}
	b, _ := workloads.ByName("PdO2")
	spec := replaySpec{bench: b.Name, nodes: 1, repeats: 1, capW: 250, seed: 11}
	const tries = 7

	// Untraced and traced tries alternate, so a drift in host speed
	// hits both sides alike; each side keeps its fastest try.
	untraced, traced := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < tries; i++ {
		t0 := time.Now()
		sw, err := workloads.NewSweep(workloads.RunSpec{Bench: b, Nodes: 1, Repeats: 1, Seed: spec.seed, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		out, err := sw.RunCap(spec.capW)
		if err != nil {
			t.Fatal(err)
		}
		core.ProfileRun(out, core.DefaultSamplingInterval)
		sw.Close()
		untraced = min(untraced, time.Since(t0))

		rec := newRecorder("test")
		if _, _, err := replay(rec, 0, []replaySpec{spec}); err != nil {
			t.Fatal(err)
		}
		spans := rec.snapshot()
		self := selfTimes(spans)
		var sum int64
		for _, sp := range spans {
			for _, l := range replayLayers {
				if sp.Name == l {
					sum += self[sp.ID]
				}
			}
		}
		traced = min(traced, time.Duration(sum))
	}
	if d := float64(traced-untraced) / float64(untraced); d > replayTolerance || d < -replayTolerance {
		t.Fatalf("replay layers sum to %v, untraced ProfileRun+RunCap %v (%.0f%% apart, limit %.0f%%)",
			traced, untraced, 100*d, 100*replayTolerance)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 50},  // overlaps 2
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past the parent
	}
	self := selfTimes(spans)
	if self[1] != 100-40-10 {
		t.Fatalf("self time %d, want 50", self[1])
	}
}

func TestHostProbeReadsSpeed(t *testing.T) {
	var none *hostProbe
	if got := none.speedSince(none.read()); got != 1 {
		t.Fatalf("no probe: speed %v, want 1", got)
	}
	h, err := startProbe()
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	r := h.read()
	time.Sleep(10 * probeEvery)
	if got := h.speedSince(r); got <= 0 || got == 1 || got > 100 {
		t.Fatalf("speed %v after ten probe periods", got)
	}
}

func TestMeasuredFields(t *testing.T) {
	out := []byte("measured: setup_s=0.5 wall_s=1.25 passes=3\n{}\n")
	got := measuredFields(out)
	want := map[string]float64{"setup_s": 0.5, "wall_s": 1.25, "passes": 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("measuredFields = %v, want %v", got, want)
	}
}
