package main

import (
	"sort"
	"sync"
	"time"

	"facil/internal/obs"
)

// span is one timed call into a layer, recorded by facilbench around the
// public API it calls. Track separates concurrent callers (the facild
// client and its /metrics reader) into their own timeline rows.
type span struct {
	ID, Parent int
	Name       string
	Track      int
	Start, End time.Duration // since the recorder's origin
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced ops pass nil and pay one pointer test.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(name string, parent, track int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Track: track, Start: now})
	return len(r.spans)
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records an already-measured span.
func (r *recorder) add(name string, parent, track int, start, end time.Time) {
	id := r.begin(name, parent, track)
	r.mu.Lock()
	r.spans[id-1].Start, r.spans[id-1].End = start.Sub(r.t0), end.Sub(r.t0)
	r.mu.Unlock()
}

// list returns a copy of the recorded spans.
func (r *recorder) list() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns every span's self time: its duration minus the part
// of its interval that its child spans cover (overlapping children count
// once).
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered time.Duration
		cur := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// selfByName sums self time, in seconds, per span name.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += self[s.ID].Seconds()
	}
	return out
}

// trackNames label the timeline rows in Perfetto.
var trackNames = map[int]string{1: "ops", 2: "GET /metrics reader"}

// writeTrace writes spans as a Chrome trace-event file (load it at
// https://ui.perfetto.dev). Each slice carries its parent span's id.
func writeTrace(path string, spans []span) error {
	t := obs.New(len(spans) + 1)
	for id, name := range trackNames {
		t.ThreadName(1, int64(id), name)
	}
	for _, s := range spans {
		t.CompleteArg(1, int64(s.Track), s.Name, us(s.Start), us(s.End-s.Start), "parent", float64(s.Parent))
	}
	return t.WriteFile(path)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
