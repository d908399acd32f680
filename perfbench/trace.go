package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share ID; Parent names the span (of the same ID) that caused this one.
// Times are nanoseconds since the tracer's epoch.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

// at converts a wall-clock instant to the tracer's timeline.
func (t *tracer) at(tm time.Time) int64 { return tm.Sub(t.epoch).Nanoseconds() }

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// selfTimes maps each span name to the self times of its spans: the
// span's duration minus the part of its interval that its child spans
// (same ID, Parent equal to its name) cover.
func selfTimes(spans []span) map[string][]float64 {
	type key struct {
		id   uint64
		name string
	}
	children := map[key][]span{}
	for _, s := range spans {
		if s.Parent != "" {
			k := key{s.ID, s.Parent}
			children[k] = append(children[k], s)
		}
	}
	out := map[string][]float64{}
	for _, s := range spans {
		covered := coveredWithin(s, children[key{s.ID, s.Name}])
		out[s.Name] = append(out[s.Name], float64(s.dur()-covered)/1e6)
	}
	return out
}

// coveredWithin is the length of the union of kids' intervals clipped to
// parent's interval.
func coveredWithin(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, v := range iv {
		switch {
		case !open:
			curLo, curHi, open = v[0], v[1], true
		case v[0] <= curHi:
			curHi = max(curHi, v[1])
		default:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// durations returns the durations, in ms, of the spans named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}
