package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// layers are the repository's modules as the benchmark names them;
// every span belongs to one of them, or to "client" for the benchmark's
// own request loop.
var layers = []string{"workload", "mem", "cpu", "sim", "runner", "service", "cluster"}

// spanRec is one recorded span. Times are nanoseconds since the tracer
// started. Op groups the spans of one operation (a probe, a job, a
// sweep): a root span's Op is its own ID and children inherit it.
type spanRec struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Op     int    `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing, so untraced runs pay one nil check per span.
type tracer struct {
	mu   sync.Mutex
	t0   time.Time
	recs []spanRec
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span is a handle to an open span.
type span struct {
	t  *tracer
	id int
	op int
}

// begin opens a span under parent (nil for a root span).
func (t *tracer) begin(parent *span, layer, name string) *span {
	if t == nil {
		return nil
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.recs) + 1
	rec := spanRec{ID: id, Op: id, Layer: layer, Name: name, Start: now, End: -1}
	if parent != nil {
		rec.Parent, rec.Op = parent.id, parent.op
	}
	t.recs = append(t.recs, rec)
	return &span{t: t, id: id, op: rec.Op}
}

// end closes the span.
func (s *span) end() {
	if s == nil {
		return
	}
	now := time.Since(s.t.t0).Nanoseconds()
	s.t.mu.Lock()
	s.t.recs[s.id-1].End = now
	s.t.mu.Unlock()
}

// spans returns a copy of the closed spans.
func (t *tracer) spans() []spanRec {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]spanRec, 0, len(t.recs))
	for _, r := range t.recs {
		if r.End >= 0 {
			out = append(out, r)
		}
	}
	return out
}

// covered is the length of the union of the intervals, each clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		s, e := max(x[0], lo), min(x[1], hi)
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE - curS
	}
	return total
}

func childIntervals(recs []spanRec) map[int][][2]int64 {
	kids := map[int][][2]int64{}
	for _, r := range recs {
		if r.Parent != 0 {
			kids[r.Parent] = append(kids[r.Parent], [2]int64{r.Start, r.End})
		}
	}
	return kids
}

// selfTimes sums, per layer, each span's duration minus the part of it
// its children cover.
func selfTimes(recs []spanRec) map[string]time.Duration {
	kids := childIntervals(recs)
	out := map[string]time.Duration{}
	for _, r := range recs {
		self := (r.End - r.Start) - covered(kids[r.ID], r.Start, r.End)
		out[r.Layer] += time.Duration(self)
	}
	return out
}

// checkSpans verifies the tree: every child lies inside its parent and
// no span's children cover more than the span itself.
func checkSpans(recs []spanRec) error {
	byID := map[int]spanRec{}
	for _, r := range recs {
		if r.End < r.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", r.ID, r.Name)
		}
		byID[r.ID] = r
	}
	for _, r := range recs {
		if r.Parent == 0 {
			continue
		}
		p, ok := byID[r.Parent]
		if !ok {
			return fmt.Errorf("span %d (%s) has unknown parent %d", r.ID, r.Name, r.Parent)
		}
		if r.Start < p.Start || r.End > p.End {
			return fmt.Errorf("span %d (%s) [%d,%d] outside parent %d (%s) [%d,%d]",
				r.ID, r.Name, r.Start, r.End, p.ID, p.Name, p.Start, p.End)
		}
	}
	for id, iv := range childIntervals(recs) {
		p := byID[id]
		if c := covered(iv, -1<<62, 1<<62); c > p.End-p.Start {
			return fmt.Errorf("children of span %d (%s) cover %d ns of its %d ns", id, p.Name, c, p.End-p.Start)
		}
	}
	return nil
}

// writeTrace writes the spans and per-layer self times as JSON.
func writeTrace(path, workload string, seed uint64, recs []spanRec) error {
	self := map[string]float64{}
	for l, d := range selfTimes(recs) {
		self[l] = ms(d)
	}
	b, err := json.MarshalIndent(struct {
		Workload string             `json:"workload"`
		Seed     uint64             `json:"seed"`
		SelfMs   map[string]float64 `json:"self_ms"`
		Spans    []spanRec          `json:"spans"`
	}{workload, seed, self, recs}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
