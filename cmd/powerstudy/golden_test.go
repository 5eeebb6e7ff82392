package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"vasppower/internal/experiments"
)

var timingLine = regexp.MustCompile(`regenerated in [0-9]+\.[0-9]+s`)

// normalize strips the only nondeterministic content of the output:
// wall-clock timing lines.
func normalize(s string) string {
	return timingLine.ReplaceAllString(s, "regenerated in _s")
}

// TestQuickOutputGolden pins the complete -quick output on the default
// platform, byte for byte. The golden file was captured before the
// platform layer existed, so this test is the proof that making the
// hardware pluggable changed nothing on the machine the paper
// measured. Regenerate after an intentional change with:
//
//	go run ./cmd/powerstudy -quick | sed -E \
//	  's/regenerated in [0-9]+\.[0-9]+s/regenerated in _s/' \
//	  > cmd/powerstudy/testdata/quick_perlmutter-a100.golden
func TestQuickOutputGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/quick_perlmutter-a100.golden")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cfg := experiments.Config{Seed: 2024, Quick: true}
	if _, err := run(cfg, "", "", &buf); err != nil {
		t.Fatal(err)
	}
	sameLines(t, "quick output vs golden", normalize(buf.String()), string(want))
}

// sameLines fails the test at the first line where got and want differ.
func sameLines(t *testing.T, label, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s: diverged at line %d:\n got: %q\nwant: %q", label, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d lines vs %d", label, len(gl), len(wl))
}

// TestQuickRunsOnEveryPlatform smoke-tests the non-default platforms
// end to end through the same entry point the CLI uses, and checks the
// extrapolations actually produce different numbers than the measured
// machine.
func TestQuickRunsOnEveryPlatform(t *testing.T) {
	outputs := map[string]string{}
	for _, name := range []string{"perlmutter-a100", "a100-80gb-500w", "h100-sxm"} {
		var buf bytes.Buffer
		cfg := experiments.Config{Platform: name, Seed: 2024, Quick: true}
		if _, err := run(cfg, "table1,fig6", "", &buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		outputs[name] = normalize(buf.String())
	}
	for _, name := range []string{"a100-80gb-500w", "h100-sxm"} {
		if outputs[name] == outputs["perlmutter-a100"] {
			t.Fatalf("%s produced byte-identical output to perlmutter-a100; the platform is not being threaded through", name)
		}
	}
}

// TestFullOutputMatchesCheckedIn pins the published artifacts: a full
// (non-quick) run must reproduce powerstudy_full.txt (timing lines
// normalized) and every CSV under artifact/ byte for byte, so the
// files EXPERIMENTS.md quotes never drift from what the code
// produces. Regenerate after an intentional change with:
//
//	go run ./cmd/powerstudy -parallel 1 > powerstudy_full.txt
//	go run ./cmd/powerstudy -artifact artifact/ > /dev/null
func TestFullOutputMatchesCheckedIn(t *testing.T) {
	if testing.Short() {
		t.Skip("full study skipped in -short mode")
	}
	want, err := os.ReadFile("../../powerstudy_full.txt")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var buf bytes.Buffer
	if _, err := run(experiments.Config{Seed: 2024}, "", dir, &buf); err != nil {
		t.Fatal(err)
	}
	footer := fmt.Sprintf("artifact bundle: 19 CSV files under %s\n", dir)
	out, ok := strings.CutSuffix(buf.String(), footer)
	if !ok {
		t.Fatalf("output does not end with %q", footer)
	}
	sameLines(t, "full output vs powerstudy_full.txt", normalize(out), normalize(string(want)))
	csvs, err := filepath.Glob("../../artifact/*.csv")
	if err != nil {
		t.Fatal(err)
	}
	if len(csvs) != 19 {
		t.Fatalf("artifact/ holds %d CSV files, want 19", len(csvs))
	}
	for _, path := range csvs {
		wantCSV, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		gotCSV, err := os.ReadFile(filepath.Join(dir, filepath.Base(path)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotCSV, wantCSV) {
			t.Errorf("%s differs from a fresh export", filepath.Base(path))
		}
	}
}
