package main

import (
	"bytes"
	"container/heap"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/stats"
)

// The load generator: one process, at most conns connections and
// worker goroutines, driving an open loop. Ops are due at a fixed rate
// whatever the server does, and an op's latency runs from when it was
// due, so a stall shows up in the ops queued behind it. An op may take
// several HTTP steps (a job submit and its polls); follow-up steps go
// back into the same due-time queue the workers serve.

// op is one generator operation.
type op struct {
	id   int
	inst int // workload instance index
	due  time.Time
	sent time.Time
	done time.Time
	next time.Time // due time of the op's next step
	step int       // steps taken so far
	// failed marks a refused, failed or wrong-result op.
	failed bool
	why    string
	// jobs-cold state: the job id, polls issued, and the latency of the
	// submit request alone.
	jobID  uint64
	polls  int
	submit time.Duration
	// resp is the op's final response.
	resp *service.Response
}

func (o *op) latencyMS() float64 { return float64(o.done.Sub(o.due)) / 1e6 }

// stepFunc performs o's next HTTP step. It returns finished once the op
// has its final answer (or failed); otherwise the delay before the next
// step.
type stepFunc func(o *op) (again time.Duration, finished bool)

// genConns is the generator's connection and worker count: at most
// nproc, and never more than two, so the load is the same on any box.
func genConns() int { return max(min(numCPU(), 2), 1) }

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// rung is one fixed-rate phase of the open loop.
type rung struct {
	rate       float64
	ops        []*op // ops issued (a stopped rung issues fewer than planned)
	lat        []float64
	nodes      []float64 // each lat sample's instance size
	late       []float64
	backlogMax int
	stopped    bool // the backlog outgrew the limit and the rung stopped issuing
	p50, p99   float64
}

// opHeap orders in-flight ops by the due time of their next step.
type opHeap []*op

func (h opHeap) Len() int           { return len(h) }
func (h opHeap) Less(i, j int) bool { return h[i].next.Before(h[j].next) }
func (h opHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *opHeap) Push(x any)        { *h = append(*h, x.(*op)) }
func (h *opHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// runRung issues ops at rate for dur with conns workers and waits for
// every issued op to finish. newOp(i) builds the i-th op of the rung.
// The rung stops issuing once a second's worth of its ops is overdue
// (every later op would then miss any latency limit) or more than
// maxActive ops are in flight (well inside the service's job queue cap,
// so an overloaded rung never meets a 429).
func runRung(ctx context.Context, rate float64, dur time.Duration, conns int,
	newOp func(i int) *op, step stepFunc) *rung {
	maxBacklog := max(4, int(rate))
	n := max(int(rate*dur.Seconds()), 1)
	gap := time.Duration(float64(time.Second) / rate)
	t0 := time.Now().Add(time.Millisecond)
	ops := make([]*op, n)
	for i := range ops {
		ops[i] = newOp(i)
		ops[i].due = t0.Add(time.Duration(i) * gap)
	}
	r := &rung{rate: rate}

	var (
		mu      sync.Mutex
		follow  opHeap
		issued  int
		active  int
		stopped bool
	)
	worker := func() {
		for {
			if ctx.Err() != nil {
				return
			}
			mu.Lock()
			now := time.Now()
			var o *op
			var wait time.Duration
			fresh := !stopped && issued < n
			switch {
			case fresh && (len(follow) == 0 || !follow[0].next.Before(ops[issued].due)):
				if d := ops[issued].due.Sub(now); d > 0 {
					wait = d
				} else {
					o = ops[issued]
					issued++
					active++
					o.sent = now
					dueByNow := min(int(now.Sub(t0)/gap)+1, n)
					if b := dueByNow - issued; b > r.backlogMax {
						r.backlogMax = b
						if b > maxBacklog {
							stopped = true
						}
					}
					if active > maxActive {
						stopped = true
					}
				}
			case len(follow) > 0:
				if d := follow[0].next.Sub(now); d > 0 {
					wait = d
				} else {
					o = heap.Pop(&follow).(*op)
				}
			case active == 0:
				mu.Unlock()
				return
			default:
				wait = 200 * time.Microsecond // another worker holds the last ops
			}
			mu.Unlock()
			if o == nil {
				time.Sleep(min(wait, 2*time.Millisecond))
				continue
			}
			again, finished := step(o)
			o.step++
			mu.Lock()
			if finished {
				o.done = time.Now()
				active--
			} else {
				o.next = time.Now().Add(again)
				heap.Push(&follow, o)
			}
			mu.Unlock()
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker()
		}()
	}
	wg.Wait()
	r.stopped = stopped
	r.ops = ops[:issued]
	for _, o := range r.ops {
		if o.done.IsZero() {
			o.failed, o.why = true, "unfinished when the run was cut"
			continue
		}
		r.late = append(r.late, float64(o.sent.Sub(o.due))/1e6)
		if !o.failed {
			r.lat = append(r.lat, o.latencyMS())
			n := 0
			if o.resp != nil {
				n = o.resp.Nodes
			}
			r.nodes = append(r.nodes, float64(n))
		}
	}
	r.p50, r.p99 = stats.Quantile(r.lat, 0.5), stats.Quantile(r.lat, 0.99)
	return r
}

// logRung reports a finished rung on the log.
func logRung(cfg *config, r *rung) {
	stop := ""
	if r.stopped {
		stop = ", stopped: backlog"
	}
	fmt.Fprintf(cfg.log, "%s: rung %g/s: %d ops, p50 %.2f ms, p99 %.2f ms, backlog max %d%s\n",
		cfg.workload, r.rate, len(r.ops), r.p50, r.p99, r.backlogMax, stop)
}

// maxActive caps the ops a rung keeps in flight.
const maxActive = 128

// ladderRungs is how many rungs the ladder search runs after the
// nominal one, each of an equal share of the ladder's time.
const ladderRungs = 8

// openLoop runs the untraced open loop — the nominal rung, then the
// ladder search — and fills the latency, rate and CPU metrics. The
// nominal rung takes nominalShare of the run's seconds. CPU is
// counted over the nominal rung only, whose op mix is fixed. meanNodes
// is the workload's expected instance size per op, fixed by its corpus
// and not by the seed's draws.
func openLoop(cfg *config, rep *report, nominalRate, nominalShare float64, rates []float64, limitMS float64,
	rungFor func(rate, secs float64) *rung, meanNodes float64) ([]*rung, error) {
	S := cfg.seconds
	cpu0 := cpuTime()
	nominal, err := nominalRung(rungFor, nominalRate, S*nominalShare)
	if err != nil {
		return nil, err
	}
	cpu := cpuTime() - cpu0
	maxRPS, rungs := ladder(rates, nominal, limitMS, ladderRungs, func(rate float64) *rung {
		return rungFor(rate, S*(1-nominalShare)/ladderRungs)
	})
	rep.metrics["p50_ms"], rep.metrics["p99_ms"] = nominal.p50, nominal.p99
	rep.metrics["max_rps"] = maxRPS
	rep.metrics["nodes_per_s"] = maxRPS * meanNodes
	rep.metrics["cpu_ms_per_op"] = float64(cpu) / 1e6 / float64(len(nominal.ops))
	rep.metrics["peak_rss_mb"] = peakRSSMB()
	return rungs, nil
}

// nominalRung runs the nominal rate. A nominal rung whose backlog grew
// measured a generator that fell behind, not a slow server: the run is
// invalid and reports an error instead of numbers.
func nominalRung(rungFor func(rate, secs float64) *rung, rate, secs float64) (*rung, error) {
	r := rungFor(rate, secs)
	if r.stopped {
		return nil, fmt.Errorf("the generator fell behind the nominal %g/s (%d ops overdue): the run is invalid", rate, r.backlogMax)
	}
	return r, nil
}

// tracedLoop runs the nominal rate twice, untraced then traced, and
// fills the generator and tracing-overhead metrics from the pair.
func tracedLoop(cfg *config, rep *report, tr *tracer, nominalRate float64,
	rungFor func(rate, secs float64) *rung) (rungs []*rung, traced *rung, err error) {
	base, err := nominalRung(rungFor, nominalRate, cfg.seconds/2)
	if err != nil {
		return nil, nil, err
	}
	tr.on.Store(true)
	traced, err = nominalRung(rungFor, nominalRate, cfg.seconds/2)
	tr.on.Store(false)
	if err != nil {
		return nil, nil, err
	}
	rep.metrics["trace.overhead_ratio"] = ratio(traced.p50, base.p50)
	rep.metrics["gen.late_p99_ms"] = stats.Quantile(traced.late, 0.99)
	rep.metrics["gen.backlog_max"] = float64(traced.backlogMax)
	return []*rung{base, traced}, traced, nil
}

// ladderRates is a fixed ladder: rates from lo up to hi, each 15%
// above the one before.
func ladderRates(lo, hi float64) []float64 {
	var out []float64
	for r := lo; r <= hi; r *= 1.15 {
		out = append(out, math.Round(r*10)/10)
	}
	return out
}

// ladder finds the highest rate on the ladder whose p99 meets limitMS
// with no growing backlog, running `rungs` rungs after the nominal one.
// The nominal rung is the first point: the search bisects the ladder's
// rates above it when it passes, below it when it fails. The rungs
// left over then walk the rates around the limit, a step up after a
// passing rate and a step down after a failing one, so the rates that
// decide the result are measured more than once: near the knee one
// rung of a rate can pass and the next fail. A rate's verdict pools
// every rung run at it: it passes when the p99 of all its ops meets
// the limit and none of its rungs stopped on a growing backlog. The
// result is interpolated, in log-latency, between the highest passing
// rate and the lowest failing rate above it. run(rate) runs one rung.
func ladder(rates []float64, nominal *rung, limitMS float64, rungs int, run func(rate float64) *rung) (maxRPS float64, ran []*rung) {
	pools := map[float64]*ratePool{}
	measure := func(r *rung) bool {
		ran = append(ran, r)
		p := pools[r.rate]
		if p == nil {
			p = &ratePool{rate: r.rate}
			pools[r.rate] = p
		}
		p.add(r)
		return p.passes(limitMS)
	}
	// Bisection over the candidates on the nominal rung's side; lo and
	// hi end as the indices in rates of the passing and failing bracket.
	var lo, hi int
	if measure(nominal) {
		lo = sort.SearchFloat64s(rates, math.Nextafter(nominal.rate, math.Inf(1))) - 1
		hi = len(rates)
	} else {
		lo = -1
		hi = sort.SearchFloat64s(rates, nominal.rate)
	}
	for hi-lo > 1 && len(ran) <= rungs {
		mid := (lo + hi) / 2
		if measure(run(rates[mid])) {
			lo = mid
		} else {
			hi = mid
		}
	}
	// The walk starts at the failing side of the bracket.
	cur := min(hi, len(rates)-1)
	for len(ran) <= rungs && len(rates) > 0 {
		if measure(run(rates[cur])) {
			cur = min(cur+1, len(rates)-1)
		} else {
			cur = max(cur-1, 0)
		}
	}

	var pass, fail *ratePool
	for _, p := range pools {
		if !p.passes(limitMS) && (fail == nil || p.rate < fail.rate) {
			fail = p
		}
	}
	for _, p := range pools {
		if p.passes(limitMS) && (fail == nil || p.rate < fail.rate) && (pass == nil || p.rate > pass.rate) {
			pass = p
		}
	}
	switch {
	case pass == nil:
		// Even the lowest rate fails: scale it by how far its p99 is
		// over the limit.
		return fail.rate * limitMS / max(fail.p99(), limitMS), ran
	case fail == nil:
		return pass.rate, ran // every rate run passes
	}
	q1, q2 := math.Log(max(pass.p99(), 1e-3)), math.Log(max(fail.p99(), limitMS))
	frac := 1.0
	if q2 > q1 {
		frac = (math.Log(limitMS) - q1) / (q2 - q1)
	}
	return pass.rate + (fail.rate-pass.rate)*math.Min(math.Max(frac, 0), 1), ran
}

// ratePool is every rung run at one rate.
type ratePool struct {
	rate    float64
	lat     []float64
	stopped bool
}

func (p *ratePool) add(r *rung) {
	p.lat = append(p.lat, r.lat...)
	p.stopped = p.stopped || r.stopped
}

func (p *ratePool) p99() float64 { return stats.Quantile(p.lat, 0.99) }

func (p *ratePool) passes(limitMS float64) bool {
	return !p.stopped && len(p.lat) > 0 && p.p99() <= limitMS
}

// server is the program under test: service.New with default options
// behind a real loopback listener.
type server struct {
	srv  *service.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

func startServer(wraps ...handlerWrapper) (*server, error) {
	srv := service.New(nil)
	var h http.Handler = srv.Handler()
	for _, w := range wraps {
		if w != nil {
			h = w(h)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.CloseStreams()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{srv: srv, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln)
	}()
	return s, nil
}

// stop shuts the listener down, waits for pending jobs and the event
// bus, and returns once the serve goroutine has exited.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	s.srv.Drain(ctx)
	s.srv.CloseStreams()
	<-s.done
}

// client is the generator's HTTP side: one transport capped at conns
// connections.
type client struct {
	base string
	tr   *http.Transport
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{base: base, tr: tr, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// do sends one request tagged with the op id and decodes a 2xx JSON
// body into out. A non-2xx status is an error naming the status.
func (c *client) do(method, path string, opID int, body []io.Reader, size int64, out any) error {
	var rd io.Reader = http.NoBody
	if body != nil {
		rd = io.MultiReader(body...)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.ContentLength = size
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(opHeader, strconv.Itoa(opID))
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			return fmt.Errorf("decoding response: %w", err)
		}
	}
	return nil
}

func (c *client) stats() (service.Stats, error) {
	var st service.Stats
	err := c.do(http.MethodGet, "/statsz", -1, nil, 0, &st)
	return st, err
}
