package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// its call: name is the layer and operation ("fleet POST", "core.Enhance"),
// start and end are nanoseconds since the recorder's origin, parent is
// the index of the enclosing span (-1 for a root) and job the sequence
// number of the job the call served (-1 when unknown).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Job    int    `json:"job"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how untraced runs call the same code.
type recorder struct {
	origin time.Time

	mu         sync.Mutex
	spans      []span
	serialMode bool
	job        int // tag for handler spans in serial mode, else -1
}

func newRecorder() *recorder { return &recorder{origin: time.Now(), job: -1} }

func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.origin))
}

// add records a span that began at start (from now) and ends now.
func (r *recorder) add(name string, start int64, job int) {
	if r == nil {
		return
	}
	end := r.now()
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: start, End: end, Parent: -1, Job: job})
	r.mu.Unlock()
}

// addAt records a span with explicit times, such as a job's queue wait
// taken from its Submitted and Started stamps.
func (r *recorder) addAt(name string, start, end time.Time, job int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: int64(start.Sub(r.origin)), End: int64(end.Sub(r.origin)), Parent: -1, Job: job})
	r.mu.Unlock()
}

// serial switches serial mode on or off. In serial mode one request is
// in flight at a time, and handler spans carry the job of the last
// enter call; otherwise they carry -1.
func (r *recorder) serial(on bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.serialMode, r.job = on, -1
	r.mu.Unlock()
}

// enter marks the start of job's calls for serial mode.
func (r *recorder) enter(job int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.serialMode {
		r.job = job
	}
	r.mu.Unlock()
}

// wrap times every job-API request h serves as a span named
// "<layer> <method>". The router re-issues requests upstream without
// any tag of ours, so handler spans carry the job of the last enter.
func (r *recorder) wrap(layer string, h http.Handler) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !jobPath(req) {
			h.ServeHTTP(w, req)
			return
		}
		t0 := r.now()
		h.ServeHTTP(w, req)
		r.mu.Lock()
		job := r.job
		r.mu.Unlock()
		r.add(layer+" "+req.Method, t0, job)
	})
}

// snapshot returns the recorded spans with parents resolved.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	out := append([]span(nil), r.spans...)
	r.mu.Unlock()
	nest(out)
	return out
}

// nest sets each span's parent to the innermost span of the same job
// whose interval contains it. It relies on the job's calls being issued
// one at a time, so that spans of one job nest by time.
func nest(spans []span) {
	idx := make([]int, len(spans))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		sa, sb := spans[idx[a]], spans[idx[b]]
		if sa.Job != sb.Job {
			return sa.Job < sb.Job
		}
		if sa.Start != sb.Start {
			return sa.Start < sb.Start
		}
		return sa.End > sb.End
	})
	var stack []int
	for _, i := range idx {
		s := &spans[i]
		for len(stack) > 0 {
			top := spans[stack[len(stack)-1]]
			if top.Job == s.Job && top.Start <= s.Start && s.End <= top.End {
				break
			}
			stack = stack[:len(stack)-1]
		}
		s.Parent = -1
		if len(stack) > 0 && s.Job >= 0 {
			s.Parent = stack[len(stack)-1]
		}
		stack = append(stack, i)
	}
}

// selfTime is the part of parent's interval that none of children
// covers: overlapping children are merged, and the parts of a child
// outside the parent are ignored.
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered := int64(0)
	curA, curB := int64(0), int64(-1)
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				covered += curB - curA
			}
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	if curB > curA {
		covered += curB - curA
	}
	return parent.dur() - covered
}

// selfTimes returns each span's self time in milliseconds, in the
// order of spans, whose parents must be resolved.
func selfTimes(spans []span) []float64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = ms(selfTime(s, kids[i]))
	}
	return out
}

// writeSpans writes one JSON object per span to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
