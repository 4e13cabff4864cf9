package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/multitree"
	"repro/internal/tree"
)

// This file is the benchmark's tracing: spans kept in memory and
// written out when the run ends, timing decorators around the public
// core.Scheduler and multitree.Policy interfaces, and a timing
// middleware around the service handler. Nothing here reaches inside
// the program; child layers of a served op are replayed in-process
// after the timed window and tied to the op by its request id.

// span is one timed interval. Start and End are nanoseconds since the
// tracer started; Parent is -1 for a root; Req ties the spans of one
// op together. A replayed span has the duration of the replayed call
// but not the time the server spent in it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

func (s *span) dur() int64 { return s.End - s.Start }

type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// on gates the handler middleware, so one traced run can also
	// measure its own untraced baseline.
	on atomic.Bool
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// add records a span and returns its id.
func (t *tracer) add(name string, parent, req int, start, end int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	return id
}

// timed runs f and records it as a span.
func (t *tracer) timed(name string, parent, req int, f func()) int {
	start := t.now()
	f()
	return t.add(name, parent, req, start, t.now())
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// opHeader carries the generator's op id to the timing middleware.
const opHeader = "X-Perfbench-Op"

type handlerWrapper func(http.Handler) http.Handler

// middleware records one span per request while the tracer is on,
// named service.<route> and tied to the op id the generator sent.
func (t *tracer) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		req, err := strconv.Atoi(r.Header.Get(opHeader))
		if err != nil {
			req = -1
		}
		name := "service.poll"
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/schedule":
			name = "service.handler"
		case r.Method == http.MethodPost && r.URL.Path == "/jobs":
			name = "service.submit"
		case !strings.HasPrefix(r.URL.Path, "/jobs/"):
			name = "service.other"
		}
		start := t.now()
		h.ServeHTTP(w, r)
		t.add(name, -1, req, start, t.now())
	})
}

// selfTimes returns each span's self time, indexed by span id: its
// duration minus its direct children's, clamped at zero.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i := range spans {
		self[i] += spans[i].dur()
		if p := spans[i].Parent; p >= 0 {
			self[p] -= spans[i].dur()
		}
	}
	for i := range self {
		self[i] = max(self[i], 0)
	}
	return self
}

// selfByLayer sums the spans' self times per layer; a span's layer is
// its name up to the first dot.
func selfByLayer(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for i := range spans {
		layer, _, _ := strings.Cut(spans[i].Name, ".")
		out[layer] += float64(self[i])
	}
	return out
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedScheduler decorates a core.Scheduler with the wall time spent
// in Init, OnFinish and Select and the number of Select calls.
type timedScheduler struct {
	core.Scheduler
	busy    time.Duration
	selects int
}

func (s *timedScheduler) Init() error {
	t0 := time.Now()
	err := s.Scheduler.Init()
	s.busy += time.Since(t0)
	return err
}

func (s *timedScheduler) OnFinish(batch []tree.NodeID) {
	t0 := time.Now()
	s.Scheduler.OnFinish(batch)
	s.busy += time.Since(t0)
}

func (s *timedScheduler) Select(free int) []tree.NodeID {
	t0 := time.Now()
	out := s.Scheduler.Select(free)
	s.busy += time.Since(t0)
	s.selects++
	return out
}

// timedPolicy decorates a multitree.Policy with the wall time spent in
// Admit, its call count and the admissions it granted.
type timedPolicy struct {
	inner   multitree.Policy
	busy    time.Duration
	calls   int
	granted int
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Admit(st *multitree.State) []multitree.Admission {
	t0 := time.Now()
	out := p.inner.Admit(st)
	p.busy += time.Since(t0)
	p.calls++
	p.granted += len(out)
	return out
}
