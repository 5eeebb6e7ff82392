package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

const testSpec = `{"bench":"Si256_hse","nodes":1,"cap_w":250}`

// startDaemon runs the daemon in the background and returns its bound
// address plus a channel carrying run's error after shutdown.
func startDaemon(t *testing.T, opts options) (string, chan error) {
	t.Helper()
	ready := make(chan string, 1)
	opts.ready = ready
	if opts.addr == "" {
		opts.addr = "127.0.0.1:0"
	}
	errc := make(chan error, 1)
	go func() { errc <- run(opts, io.Discard, io.Discard) }()
	select {
	case addr := <-ready:
		return addr, errc
	case err := <-errc:
		t.Fatalf("daemon exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never came up")
	}
	return "", nil
}

func sigterm(t *testing.T) {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
}

func waitExit(t *testing.T, errc chan error) {
	t.Helper()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
}

// TestGracefulShutdown: the daemon serves real measurements, then a
// SIGTERM drains it cleanly and the manifest lands with serve.*
// metrics filled in.
func TestGracefulShutdown(t *testing.T) {
	manifest := filepath.Join(t.TempDir(), "manifest.json")
	addr, errc := startDaemon(t, options{hold: -1, manifestPath: manifest, drainTimeout: 30 * time.Second})

	// One real measurement, then a warm repeat.
	var bodies [2][]byte
	for i := range bodies {
		resp, err := http.Post("http://"+addr+"/v1/measure", "application/json", strings.NewReader(testSpec))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("request %d: status %d body %s", i, resp.StatusCode, b)
		}
		bodies[i] = b
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatal("warm repeat returned different bytes")
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	sigterm(t)
	waitExit(t, errc)

	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatalf("manifest not written: %v", err)
	}
	var m struct {
		Tool    string `json:"tool"`
		Metrics struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("manifest not JSON: %v", err)
	}
	if m.Tool != "powerd" {
		t.Fatalf("manifest tool %q", m.Tool)
	}
	if m.Metrics.Counters["serve.requests"] < 2 {
		t.Fatalf("serve.requests = %d, want >= 2", m.Metrics.Counters["serve.requests"])
	}
	if m.Metrics.Counters["serve.hits"] < 1 {
		t.Fatalf("serve.hits = %d, want >= 1 (the warm repeat)", m.Metrics.Counters["serve.hits"])
	}

	// After shutdown the listener is gone.
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("listener still accepting after graceful shutdown")
	}
}

// TestOneshotMatchesHTTP pins the CLI↔HTTP determinism contract: the
// -oneshot body for a spec is byte-identical to the served response.
func TestOneshotMatchesHTTP(t *testing.T) {
	addr, errc := startDaemon(t, options{hold: -1, drainTimeout: 10 * time.Second})
	resp, err := http.Post("http://"+addr+"/v1/measure", "application/json", strings.NewReader(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	served, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d body %s", resp.StatusCode, served)
	}
	sigterm(t)
	waitExit(t, errc)

	var stdout bytes.Buffer
	if err := run(options{oneshot: testSpec}, &stdout, io.Discard); err != nil {
		t.Fatalf("oneshot: %v", err)
	}
	if !bytes.Equal(stdout.Bytes(), served) {
		t.Fatalf("oneshot bytes differ from served bytes:\n%s\n%s", stdout.Bytes(), served)
	}
}

// TestOneshotInvalidSpec: a bad spec exits non-zero with the error
// JSON on stdout.
func TestOneshotInvalidSpec(t *testing.T) {
	var stdout bytes.Buffer
	err := run(options{oneshot: `{"bench":"NoSuchBench"}`}, &stdout, io.Discard)
	if err == nil {
		t.Fatal("invalid oneshot spec succeeded")
	}
	if !strings.Contains(stdout.String(), "unknown benchmark") {
		t.Fatalf("stdout %q missing error body", stdout.String())
	}
}

// TestSIGTERMAtReady: a SIGTERM sent the moment the listener is
// announced drains the daemon cleanly and writes the manifest, rather
// than killing the process before its handler is installed.
func TestSIGTERMAtReady(t *testing.T) {
	manifest := filepath.Join(t.TempDir(), "manifest.json")
	_, errc := startDaemon(t, options{hold: -1, manifestPath: manifest, drainTimeout: 10 * time.Second})
	sigterm(t)
	waitExit(t, errc)
	if _, err := os.Stat(manifest); err != nil {
		t.Fatalf("manifest not written: %v", err)
	}
}

// TestHoldElapses: a positive -hold returns without any signal.
func TestHoldElapses(t *testing.T) {
	_, errc := startDaemon(t, options{hold: 50 * time.Millisecond, drainTimeout: 10 * time.Second})
	waitExit(t, errc)
}
