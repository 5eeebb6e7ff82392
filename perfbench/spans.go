package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced suite. Times are
// nanoseconds since the recorder's epoch; Parent 0 is a root.
type span struct {
	ID     int64          `json:"id"`
	Parent int64          `json:"parent"`
	Run    string         `json:"run"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so workloads call it unconditionally and the
// untraced runs pay one nil check per call site.
type recorder struct {
	mu    sync.Mutex
	run   string
	epoch time.Time
	spans []span
}

func newRecorder(run string) *recorder {
	return &recorder{run: run, epoch: time.Now()}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// start opens a span and returns its ID (0 on a nil recorder).
func (r *recorder) start(name string, parent int64) int64 {
	if r == nil {
		return 0
	}
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Run: r.run, Name: name, Start: t})
	return id
}

// end closes span id.
func (r *recorder) end(id int64) {
	if r == nil || id == 0 {
		return
	}
	t := r.now()
	r.mu.Lock()
	r.spans[id-1].End = t
	r.mu.Unlock()
}

// add records a span measured elsewhere (the program's own spans).
func (r *recorder) add(s span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = int64(len(r.spans) + 1)
	s.Run = r.run
	r.spans = append(r.spans, s)
}

// snapshot copies the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// obsSink adapts the program's span tracer (obs.Tracer writes one JSON
// object per line: "span", "start", "ms" and attributes) into recorder
// spans under one parent, so the program's "measure" spans nest under
// the benchmark's runner spans.
type obsSink struct {
	r      *recorder
	parent int64
}

func (s obsSink) Write(p []byte) (int, error) {
	var line map[string]any
	if err := json.Unmarshal(p, &line); err != nil {
		return 0, fmt.Errorf("obs span line: %w", err)
	}
	name, _ := line["span"].(string)
	startStr, _ := line["start"].(string)
	ms, _ := line["ms"].(float64)
	start, err := time.Parse(time.RFC3339Nano, startStr)
	if err != nil {
		return 0, fmt.Errorf("obs span start: %w", err)
	}
	delete(line, "span")
	delete(line, "start")
	delete(line, "ms")
	st := int64(start.Sub(s.r.epoch))
	s.r.add(span{Parent: s.parent, Name: name, Start: st, End: st + int64(ms*1e6), Attrs: line})
	return len(p), nil
}

// selfTimes returns each span's duration minus the part of its
// interval its children cover (children may overlap one another, so
// the covered part is the union of their intervals).
func selfTimes(spans []span) map[int64]int64 {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	return total + curB - curA
}

// layerTable sums self time and span count per span name.
type layerRow struct {
	name   string
	count  int
	selfNS int64
}

func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	byName := map[string]*layerRow{}
	for _, s := range spans {
		row := byName[s.Name]
		if row == nil {
			row = &layerRow{name: s.Name}
			byName[s.Name] = row
		}
		row.count++
		row.selfNS += self[s.ID]
	}
	rows := make([]layerRow, 0, len(byName))
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].selfNS > rows[j].selfNS })
	return rows
}

// writeSpans writes the spans as JSON lines to path, creating its
// directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printLayers prints the per-layer self-time table to w.
func printLayers(w io.Writer, spans []span) {
	fmt.Fprintf(w, "%-40s %8s %12s\n", "layer (span name)", "spans", "self ms")
	for _, r := range layerTable(spans) {
		fmt.Fprintf(w, "%-40s %8d %12.2f\n", r.name, r.count, float64(r.selfNS)/1e6)
	}
}
