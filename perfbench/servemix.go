package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"vasppower/internal/core"
	"vasppower/internal/experiments"
	"vasppower/internal/obs"
	"vasppower/internal/serve"
	"vasppower/internal/workloads"
)

// The request mix of one serve-mix pass: 94% warm /v1/measure, 5%
// cold /v1/measure (a seed no request used before) and 1% cold 13-point
// /v1/sweep cap sweeps. The counts are exact, and every Table I
// benchmark gets the same cold requests and sweeps (node counts and
// caps in a fixed rotation), so each pass does the same work whatever
// the seed: with seeded node counts a pass's allocation varied by 5%
// from seed to seed. The seed picks the warm bodies, the cold seeds
// and the order.
const (
	servePassRequests  = 2100
	serveColdPerBench  = 15
	serveSweepPerBench = 3
)

// warmCaps × {1, 2} nodes × Table I is the warm set: 84 bodies, primed
// at set-up.
var warmCaps = []float64{150, 200, 250, 300, 350, 400}

// Request classes.
const (
	classWarm = iota
	classCold
	classSweep
)

var classNames = []string{"warm", "cold", "sweep"}

// request is one scripted call.
type request struct {
	path   string
	body   []byte
	class  int
	warm   int  // index into the warm set (warm class only)
	sample bool // re-checked against Server.OneShot after the pass
}

// warmBodies is the warm set's request bodies, in a fixed order.
func warmBodies() [][]byte {
	var out [][]byte
	for _, b := range workloads.TableI() {
		for _, nodes := range []int{1, 2} {
			for _, c := range warmCaps {
				out = append(out, []byte(fmt.Sprintf(`{"bench":%q,"nodes":%d,"cap_w":%g}`, b.Name, nodes, c)))
			}
		}
	}
	return out
}

// makeScript builds pass p's request script from the run seed: the
// warm picks and the order are seeded; cold seeds are unique across
// every pass of a run, so cold requests never hit a cache a previous
// pass filled.
func makeScript(seed uint64, p, nWarm int) []request {
	rng := rand.New(rand.NewPCG(subSeed(seed, 2), uint64(p)))
	benches := workloads.TableI()
	coldBase := (subSeed(seed, 3)&0xffffffff)<<20 + uint64(p*servePassRequests)

	script := make([]request, 0, servePassRequests)
	for _, b := range benches {
		for i := 0; i < serveColdPerBench; i++ {
			n := len(script)
			script = append(script, request{
				path: "/v1/measure", class: classCold, sample: i == 0,
				body: []byte(fmt.Sprintf(`{"bench":%q,"nodes":%d,"cap_w":%g,"seed":%d}`,
					b.Name, 1+i%2, warmCaps[i%len(warmCaps)], coldBase+uint64(n))),
			})
		}
		for i := 0; i < serveSweepPerBench; i++ {
			n := len(script)
			script = append(script, request{
				path: "/v1/sweep", class: classSweep, sample: i == 0 && p%2 == 0,
				body: []byte(fmt.Sprintf(`{"kind":"cap","bench":%q,"nodes":%d,"seed":%d,"from_w":100,"to_w":400,"step_w":25}`,
					b.Name, 1+i%2, coldBase+uint64(n))),
			})
		}
	}
	for len(script) < servePassRequests {
		w := rng.IntN(nWarm)
		script = append(script, request{path: "/v1/measure", class: classWarm, warm: w, sample: len(script)%500 == 0})
	}
	rng.Shuffle(len(script), func(i, j int) { script[i], script[j] = script[j], script[i] })
	return script
}

// httpServer is an in-process powerd on a loopback listener.
type httpServer struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

func startServer(cfg serve.Config) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{srv: serve.New(cfg), url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return s, nil
}

// stop drains the server and waits for its accept loop to exit.
func (s *httpServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.done
}

// serveMix replays a seeded request script against an in-process
// powerd from a closed loop of `workers` connections: each connection
// sends its next request only after the previous reply is read.
type serveMix struct {
	seed uint64
	// newConfig builds the server configuration; the traced suite
	// supplies one with a metrics registry and wrapped evaluators.
	newConfig func() serve.Config

	srv, verify *httpServer
	clients     []*http.Client
	bodies      [][]byte
	warmResp    [][]byte

	script []request
	lat    []float64
	ok     []bool
	served [][]byte // sampled responses, by script index

	rec    *recorder
	parent int64
}

func newServeMix(seed uint64, newConfig func() serve.Config) *serveMix {
	if newConfig == nil {
		newConfig = func() serve.Config { return serve.Config{Workers: workers} }
	}
	m := &serveMix{seed: seed, newConfig: newConfig, bodies: warmBodies()}
	for i := 0; i < workers; i++ {
		m.clients = append(m.clients, &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, DisableCompression: true,
		}})
	}
	return m
}

// setup starts a fresh server with empty caches and primes the warm
// set through it, keeping each warm body's reply as the bytes every
// later repeat must return.
func (m *serveMix) setup() error {
	m.close()
	experiments.ResetCache()
	var err error
	if m.srv, err = startServer(m.newConfig()); err != nil {
		return err
	}
	if m.verify, err = startServer(serve.Config{Workers: workers}); err != nil {
		return err
	}
	prime := make([]request, len(m.bodies))
	for i, b := range m.bodies {
		prime[i] = request{path: "/v1/measure", body: b, class: classWarm, warm: -1}
	}
	m.warmResp = make([][]byte, len(m.bodies))
	m.run(prime, func(i int, status int, body []byte) bool {
		m.warmResp[i] = append([]byte(nil), body...)
		return status == http.StatusOK
	})
	for i, ok := range m.ok {
		if !ok {
			return fmt.Errorf("priming %s failed: %s", m.bodies[i], m.warmResp[i])
		}
	}
	return nil
}

func (m *serveMix) prepare(p int) error {
	experiments.ResetCache()
	m.script = makeScript(m.seed, p, len(m.bodies))
	for i := range m.script {
		if m.script[i].class == classWarm {
			m.script[i].body = m.bodies[m.script[i].warm]
		}
	}
	return nil
}

func (m *serveMix) pass(int) error {
	m.served = make([][]byte, len(m.script))
	m.run(m.script, func(i int, status int, body []byte) bool {
		r := m.script[i]
		if r.sample {
			m.served[i] = append([]byte(nil), body...)
		}
		if status != http.StatusOK {
			return false
		}
		return r.class != classWarm || bytes.Equal(body, m.warmResp[r.warm])
	})
	return nil
}

// run sends reqs in order over the client connections, each
// connection taking the next unsent request as soon as its previous
// reply is read (so no connection idles while work remains), recording
// each latency and whether accept judged the reply correct.
func (m *serveMix) run(reqs []request, accept func(i, status int, body []byte) bool) {
	m.lat = make([]float64, len(reqs))
	m.ok = make([]bool, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, cl := range m.clients {
		wg.Add(1)
		go func(cl *http.Client) {
			defer wg.Done()
			var buf bytes.Buffer
			for i := int(next.Add(1) - 1); i < len(reqs); i = int(next.Add(1) - 1) {
				r := reqs[i]
				id := m.rec.start("serve.request."+classNames[r.class], m.parent)
				t0 := time.Now()
				status, err := post(cl, m.srv.url+r.path, r.body, &buf)
				m.lat[i] = float64(time.Since(t0)) / 1e6
				m.rec.end(id)
				m.ok[i] = err == nil && accept(i, status, buf.Bytes())
			}
		}(cl)
	}
	wg.Wait()
}

func post(cl *http.Client, url string, body []byte, buf *bytes.Buffer) (int, error) {
	resp, err := cl.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// check counts the replies judged correct during the pass, then
// re-issues the sampled bodies through Server.OneShot on a separate
// server: the bytes served over HTTP must equal the one-shot bytes.
func (m *serveMix) check(int) (passOut, error) {
	out := passOut{work: len(m.script), latMS: m.lat, attempted: int64(len(m.script))}
	for i, r := range m.script {
		ok := m.ok[i]
		if ok && r.sample {
			status, body := m.verify.srv.OneShot(http.MethodPost, r.path, r.body)
			ok = status == http.StatusOK && bytes.Equal(body, m.served[i])
		}
		if ok {
			out.ok++
		}
	}
	return out, nil
}

func (m *serveMix) close() {
	for _, s := range []*httpServer{m.srv, m.verify} {
		if s != nil {
			s.stop()
		}
	}
	m.srv, m.verify = nil, nil
	for _, cl := range m.clients {
		cl.CloseIdleConnections()
	}
}

// evalTimer wraps the server's evaluators, timing every call (and
// recording a span when traced) — the serve layer's compute share. The
// server calls it from its own goroutines, so the tracing switch is
// atomic.
type evalTimer struct {
	ns     atomic.Int64
	rec    atomic.Pointer[recorder]
	parent atomic.Int64
}

func (e *evalTimer) trace(rec *recorder, parent int64) {
	e.rec.Store(rec)
	e.parent.Store(parent)
}

func (e *evalTimer) timed(fn func() error) error {
	rec := e.rec.Load()
	id := rec.start("serve.eval", e.parent.Load())
	t0 := time.Now()
	err := fn()
	e.ns.Add(int64(time.Since(t0)))
	rec.end(id)
	return err
}

func (e *evalTimer) measure(spec core.MeasureSpec) (jp core.JobProfile, err error) {
	err = e.timed(func() error {
		jp, err = experiments.CachedMeasureSpec(spec)
		return err
	})
	return jp, err
}

func (e *evalTimer) measureGroup(spec core.MeasureSpec, caps []float64) (jps []core.JobProfile, err error) {
	err = e.timed(func() error {
		jps, err = experiments.CachedMeasureGroup(spec, caps)
		return err
	})
	return jps, err
}

// tracedServeConfig is the traced suite's server: metrics into reg,
// evaluators timed by e.
func tracedServeConfig(reg *obs.Registry, e *evalTimer) func() serve.Config {
	return func() serve.Config {
		return serve.Config{Workers: workers, Reg: reg, Measure: e.measure, MeasureGroup: e.measureGroup}
	}
}
