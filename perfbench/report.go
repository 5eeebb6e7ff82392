package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// runReport runs each named workload runs times, seeds 1..runs, as
// child processes of this binary (one at a time, each waited for). The
// workloads take turns seed by seed, so a drift in the host's speed
// over the report falls on every workload alike. Per workload and
// metric it prints the median, the quartiles, the quartile spread
// (q3−q1)/median, which is what a metric's bound is held against, and
// the range (max−min)/median; the measured (not normalised) figures of
// each run's "measured:" line are listed too, as measured.<name>.
func runReport(names []string, runs int, seconds float64) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	for _, name := range names {
		if !validWorkload(name) {
			return fmt.Errorf("unknown workload %q", name)
		}
		values[name] = map[string][]float64{}
	}
	for seed := 1; seed <= runs; seed++ {
		for _, name := range names {
			cmd := exec.Command(self, "--workload", name, "--seed", strconv.Itoa(seed),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			res, err := lastResult(out)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			if !res.Correct {
				fmt.Printf("%s seed %d: correct=false (%d of %d failed)\n", name, seed, res.Failed, res.Attempted)
			}
			for k, m := range res.Metrics {
				values[name][k] = append(values[name][k], m.Value)
				units[k] = m.Unit
			}
			mf := measuredFields(out)
			for k, v := range mf {
				values[name]["measured."+k] = append(values[name]["measured."+k], v)
			}
			fmt.Printf("%s seed %d: wall_s %.4g (measured %.4g at speed %.3g), setup_s %.4g (measured %.4g)\n", name, seed,
				res.Metrics["wall_s"].Value, mf["wall_s"], mf["speed"], res.Metrics["setup_s"].Value, mf["setup_s"])
		}
	}
	for _, name := range names {
		fmt.Printf("\n%s: %d runs, seeds 1..%d, --seconds %g\n", name, runs, runs, seconds)
		fmt.Printf("%-20s %-6s %12s %12s %12s %9s %9s\n", "metric", "unit", "median", "q1", "q3", "iqr/med", "rng/med")
		keys := make([]string, 0, len(values[name]))
		for k := range values[name] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			v := values[name][k]
			q := quartiles(v)
			med := q[1]
			lo, hi := v[0], v[0]
			for _, x := range v {
				lo, hi = min(lo, x), max(hi, x)
			}
			fmt.Printf("%-20s %-6s %12.6g %12.6g %12.6g %8.2f%% %8.2f%%\n",
				k, units[k], med, q[0], q[2], 100*(q[2]-q[0])/med, 100*(hi-lo)/med)
		}
	}
	return nil
}

// measuredFields parses the key=value pairs of a run's "measured:"
// line.
func measuredFields(out []byte) map[string]float64 {
	f := map[string]float64{}
	for _, line := range strings.Split(string(out), "\n") {
		rest, ok := strings.CutPrefix(line, "measured:")
		if !ok {
			continue
		}
		for _, kv := range strings.Fields(rest) {
			k, v, _ := strings.Cut(kv, "=")
			if x, err := strconv.ParseFloat(v, 64); err == nil {
				f[k] = x
			}
		}
	}
	return f
}

// lastResult parses the JSON result on the last line of a run's
// standard output.
func lastResult(out []byte) (result, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	dec := json.NewDecoder(bytes.NewReader([]byte(lines[len(lines)-1])))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		return result{}, fmt.Errorf("result line: %w", err)
	}
	return res, nil
}

// quartiles is Python's statistics.quantiles(data, n=4) with its
// default 'exclusive' method; it needs at least two values and returns
// the input's single value three times otherwise.
func quartiles(data []float64) [3]float64 {
	s := append([]float64(nil), data...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return [3]float64{s[0], s[0], s[0]}
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*n)
		q[i-1] = (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return q
}
