package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Req is the request number within
// the traced pass (every rung answers the same numbered requests, so rungs
// can be subtracted); Parent indexes the span whose interval encloses this
// one (-1 at a root). The traced pass runs one client, so a server-side
// span nests in time inside the client call that caused it and parents are
// found by time alone — the program does not propagate request ids.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`

	parentName string
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory for one pass. A nil *tracer records nothing,
// which is how untraced passes run the same code.
type tracer struct {
	origin time.Time
	req    atomic.Int64 // number of the client request in flight

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t := &tracer{origin: time.Now()}
	t.req.Store(-1) // spans before the first request (set-up, health checks) belong to none
	return t
}

// begin marks request req as the one in flight; server-side spans recorded
// until the next begin belong to it.
func (t *tracer) begin(req int) {
	if t != nil {
		t.req.Store(int64(req))
	}
}

// record adds a span for request req; parent names the enclosing span's
// layer ("" for a root).
func (t *tracer) record(name, parent string, req int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		Name: name, Req: req, Parent: -1,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin)),
		parentName: parent,
	})
	t.mu.Unlock()
}

// wrap times every request h serves as a span called name (or, with
// byRoute, name plus the route's last path element) inside parent.
func (t *tracer) wrap(name, parent string, byRoute bool, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		n := name
		if byRoute {
			n += r.URL.Path[strings.LastIndexByte(r.URL.Path, '/')+1:]
		}
		t.record(n, parent, int(t.req.Load()), start, time.Now())
	})
}

// link resolves each span's parent: the span of the parent layer with the
// same request number whose interval encloses it.
func (t *tracer) link() {
	type key struct {
		name string
		req  int
	}
	byKey := map[key][]int{}
	for i, s := range t.spans {
		byKey[key{s.Name, s.Req}] = append(byKey[key{s.Name, s.Req}], i)
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.parentName == "" {
			continue
		}
		for _, j := range byKey[key{s.parentName, s.Req}] {
			p := t.spans[j]
			if p.Start <= s.Start && s.End <= p.End {
				s.Parent = j
				break
			}
		}
	}
}

// self returns each span's duration minus the part of its interval that
// its children cover.
func (t *tracer) self() []time.Duration {
	kids := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		ivs := make([][2]int64, 0, len(kids[i]))
		for _, c := range kids[i] {
			ivs = append(ivs, [2]int64{t.spans[c].Start, t.spans[c].End})
		}
		out[i] = s.dur() - time.Duration(covered(ivs))
	}
	return out
}

// covered is the total length of the union of the intervals.
func covered(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total, end int64
	started := false
	var start int64
	for _, iv := range ivs {
		switch {
		case !started:
			start, end, started = iv[0], iv[1], true
		case iv[0] > end:
			total += end - start
			start, end = iv[0], iv[1]
		case iv[1] > end:
			end = iv[1]
		}
	}
	if started {
		total += end - start
	}
	return total
}

// byReq maps request number to duration for the spans named name (the
// first span per request when a layer is called more than once).
func (t *tracer) byReq(name string, durs []time.Duration) map[int]time.Duration {
	out := map[int]time.Duration{}
	for i, s := range t.spans {
		if s.Name != name {
			continue
		}
		if _, ok := out[s.Req]; !ok {
			out[s.Req] = durs[i]
		}
	}
	return out
}

// durations returns the durations (or self times) of every span named name.
func (t *tracer) durations(name string, durs []time.Duration) []float64 {
	var out []float64
	for i, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(durs[i]))
		}
	}
	return out
}

// write saves the spans as JSON.
func (t *tracer) write(path, workload string, seed int64) error {
	type machine struct {
		NumCPU     int    `json:"nproc"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		Go         string `json:"go"`
	}
	body := struct {
		Workload string  `json:"workload"`
		Seed     int64   `json:"seed"`
		Machine  machine `json:"machine"`
		Spans    []span  `json:"spans"`
	}{workload, seed, machine{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()}, t.spans}
	b, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
