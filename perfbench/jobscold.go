package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/order"
	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/tree"
	"repro/internal/workload"
)

// jobs-cold: an open loop of POST /jobs with small synthetic-instance
// bodies, each job polled with GET /jobs/{id} until it is done. Every
// seed is unique, so the server generates, prepares, caches (and
// evicts) and schedules a new instance per job; decode and parse cost
// next to nothing. Submits and cache inserts are writes, polls reads.

type coldParams struct {
	// sizes is the size ladder, in nodes. An odd count puts the median
	// job in the middle size rather than on the step between two.
	sizes []int
	// nominal is low enough that a median job rarely queues behind
	// another, which would scale its latency by the host's load.
	nominal float64
	// nominalShare is the part of the run at the nominal rate: more than
	// serve-warm's half, as its p50 varies most between runs.
	nominalShare float64
	ladder       []float64
	limitMS      float64
	setups       int
}

func coldParamsFor(cfg *config) coldParams {
	if cfg.tiny {
		return coldParams{sizes: logSizes(200, 2000, 4), nominal: 20, nominalShare: 0.5, ladder: []float64{10, 40},
			limitMS: 1000, setups: 2}
	}
	return coldParams{sizes: logSizes(2000, 100000, 13), nominal: 10, nominalShare: 0.6,
		ladder: ladderRates(5, 250), limitMS: 500, setups: 3}
}

// logSizes returns k sizes log-spaced from lo to hi.
func logSizes(lo, hi, k int) []int {
	out := make([]int, k)
	for i := range out {
		frac := float64(i) / float64(max(k-1, 1))
		out[i] = int(math.Round(float64(lo) * math.Pow(float64(hi)/float64(lo), frac)))
	}
	return out
}

// coldJob is one generated instance: a unique seed, a size and a
// memory factor. Sizes and factors are dealt from shuffled decks, so
// every window of a deck's length holds each value once.
type coldJob struct {
	seed  uint64
	nodes int
	size  int // index into the size ladder
	mf    float64
}

type coldDeck struct {
	rng          *workload.RNG
	sizes        []int
	sizeDeck, mf []int
}

func newColdDeck(seed, tag uint64, sizes []int) *coldDeck {
	return &coldDeck{rng: workload.NewRNG(seed ^ tag), sizes: sizes}
}

func (d *coldDeck) deal() coldJob {
	if len(d.sizeDeck) == 0 {
		d.sizeDeck = d.perm(len(d.sizes))
	}
	if len(d.mf) == 0 {
		d.mf = d.perm(len(memFactors))
	}
	si, mi := d.sizeDeck[0], d.mf[0]
	d.sizeDeck, d.mf = d.sizeDeck[1:], d.mf[1:]
	return coldJob{seed: d.rng.Uint64(), nodes: d.sizes[si], size: si, mf: memFactors[mi]}
}

func (d *coldDeck) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		k := d.rng.Intn(i + 1)
		p[i], p[k] = p[k], p[i]
	}
	return p
}

func (j coldJob) body() string {
	return `{"synthetic":{"seed":` + strconv.FormatUint(j.seed, 10) + `,"nodes":` + strconv.Itoa(j.nodes) +
		`},"procs":` + strconv.Itoa(serverProcs) + `,"mem_factor":` + strconv.FormatFloat(j.mf, 'g', -1, 64) + `}`
}

// pollDelay is the wait before the next poll of a job submitted
// elapsed ago: a tenth of its age, from 0.5 to 10 ms, so polling adds
// about 5% to a job's latency whatever its size.
func pollDelay(elapsed time.Duration) time.Duration {
	return min(max(elapsed/10, 500*time.Microsecond), 10*time.Millisecond)
}

// submitAndWait runs one job to completion over cl (set-up warm-up).
func submitAndWait(cl *client, j coldJob) error {
	var v service.JobView
	body := j.body()
	if err := cl.do(http.MethodPost, "/jobs", -1, readers(body), int64(len(body)), &v); err != nil {
		return err
	}
	for t0 := time.Now(); v.Status != service.JobDone; {
		if v.Status == service.JobFailed {
			return fmt.Errorf("job %d failed: %s", v.ID, v.Error)
		}
		time.Sleep(pollDelay(time.Since(t0)))
		if err := cl.do(http.MethodGet, "/jobs/"+strconv.FormatUint(v.ID, 10), -1, nil, 0, &v); err != nil {
			return err
		}
	}
	return nil
}

func jobsCold(ctx context.Context, cfg *config) (*report, error) {
	p := coldParamsFor(cfg)
	conns := genConns()
	rep := newReport()
	var tr *tracer
	wraps := []handlerWrapper{cfg.wrap}
	if cfg.trace {
		tr = newTracer()
		wraps = append(wraps, tr.middleware)
	}

	// Set-up, repeated: server start and one warm-up job per size
	// (seeds outside the timed stream).
	var (
		srv    *server
		setups []float64
	)
	for i := 0; i < p.setups; i++ {
		if srv != nil {
			srv.stop()
		}
		t0 := time.Now()
		var err error
		if srv, err = startServer(wraps...); err != nil {
			return nil, err
		}
		cl := newClient(srv.url, conns)
		warm := newColdDeck(cfg.seed, 0x7761726d, p.sizes) // "warm"
		for range p.sizes {
			if err := submitAndWait(cl, warm.deal()); err != nil {
				cl.close()
				srv.stop()
				return nil, fmt.Errorf("warm-up job: %w", err)
			}
		}
		cl.close()
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer srv.stop()
	rep.metrics["setup_s"] = stats.Median(setups)
	rep.samples["setup_s"] = setups

	cl := newClient(srv.url, conns)
	defer cl.close()
	deck := newColdDeck(cfg.seed, 0x636f6c64, p.sizes) // "cold"
	var jobs []coldJob
	newOp := func(int) *op {
		jobs = append(jobs, deck.deal())
		return &op{id: len(jobs), inst: len(jobs) - 1}
	}
	step := func(o *op) (time.Duration, bool) {
		var v service.JobView
		if o.step == 0 {
			body := jobs[o.inst].body()
			t0 := time.Now()
			if err := cl.do(http.MethodPost, "/jobs", o.id, readers(body), int64(len(body)), &v); err != nil {
				o.failed, o.why = true, fmt.Sprintf("op %d submit: %v", o.id, err)
				return 0, true
			}
			o.submit = time.Since(t0)
			o.jobID = v.ID
		} else {
			o.polls++
			if err := cl.do(http.MethodGet, "/jobs/"+strconv.FormatUint(o.jobID, 10), o.id, nil, 0, &v); err != nil {
				o.failed, o.why = true, fmt.Sprintf("op %d poll: %v", o.id, err)
				return 0, true
			}
		}
		switch v.Status {
		case service.JobDone:
			o.resp = v.Response
			return 0, true
		case service.JobFailed:
			o.failed, o.why = true, fmt.Sprintf("op %d: job failed (%d): %s", o.id, v.ErrorStatus, v.Error)
			return 0, true
		}
		return pollDelay(time.Since(o.sent)), false
	}
	rungFor := func(rate float64, secs float64) *rung {
		r := runRung(ctx, rate, seconds(secs), conns, newOp, step)
		logRung(cfg, r)
		return r
	}

	before, err := cl.stats()
	if err != nil {
		return nil, err
	}
	var rungs []*rung
	var traced *rung
	if !cfg.trace {
		mean := 0.0
		for _, n := range p.sizes {
			mean += float64(n) / float64(len(p.sizes))
		}
		rungs, err = openLoop(cfg, rep, p.nominal, p.nominalShare, p.ladder, p.limitMS, rungFor, mean)
		if err != nil {
			return nil, err
		}
	} else {
		if rungs, traced, err = tracedLoop(cfg, rep, tr, p.nominal, rungFor); err != nil {
			return nil, err
		}
		var submits, polls []float64
		for _, o := range traced.ops {
			submits = append(submits, float64(o.submit)/1e6)
			polls = append(polls, float64(o.polls))
		}
		rep.metrics["service.submit_ms"] = stats.Median(submits)
		rep.metrics["service.polls_per_job"] = stats.Mean(polls)
	}
	after, err := cl.stats()
	if err != nil {
		return nil, err
	}
	cacheMetrics(rep, before, after)

	// The gate: every answer against the benchmark's own evaluation.
	if cfg.trace {
		replayCold(tr, traced, jobs, rep)
	}
	checkCold(rungs, jobs, rep)
	collectOps(rep, rungs)
	rep.metrics["makespan_over_lb"] = makespanOverLB(rungs)
	return rep, nil
}

func readers(s string) []io.Reader { return []io.Reader{strings.NewReader(s)} }

// coldInstance regenerates a job's instance the way the server does.
func coldInstance(j coldJob) (*tree.Tree, error) {
	return workload.Synthetic(workload.NewRNG(j.seed), workload.SyntheticOptions{Nodes: j.nodes})
}

// checkCold evaluates every answered job in-process (on genConns
// goroutines) and marks the ops whose answers differ.
func checkCold(rungs []*rung, jobs []coldJob, rep *report) {
	var todo []*op
	for _, r := range rungs {
		for _, o := range r.ops {
			if !o.failed {
				todo = append(todo, o)
			}
		}
	}
	var (
		wg   sync.WaitGroup
		next int
		mu   sync.Mutex
	)
	for w := 0; w < genConns(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= len(todo) {
					mu.Unlock()
					return
				}
				o := todo[next]
				next++
				mu.Unlock()
				j := jobs[o.inst]
				t, err := coldInstance(j)
				if err != nil {
					o.failed, o.why = true, fmt.Sprintf("op %d oracle: %v", o.id, err)
					continue
				}
				ao, peak := order.MinMemPostOrder(t)
				want, err := evaluate(t, ao, peak, j.mf, replay{}, nil)
				if err != nil {
					o.failed, o.why = true, fmt.Sprintf("op %d oracle: %v", o.id, err)
					continue
				}
				if d := mismatch(o.resp, want); d != "" {
					o.failed, o.why = true, fmt.Sprintf("op %d: %s", o.id, d)
				}
			}
		}()
	}
	wg.Wait()
}

// replayCold replays each traced job's layers under a service.job span
// that covers the job's life from submit to the poll that saw it done;
// the job's submit and poll handler spans become its children too.
func replayCold(tr *tracer, traced *rung, jobs []coldJob, rep *report) {
	var (
		lt             layerTotals
		genNS, mempoNS float64
		prepNS         float64
		replayed       int
		jobSpan        = map[int]int{}
	)
	for _, o := range traced.ops {
		if o.failed || o.resp == nil {
			continue
		}
		replayed++
		id := tr.add("service.job", -1, o.id, int64(o.sent.Sub(tr.t0)), int64(o.done.Sub(tr.t0)))
		jobSpan[o.id] = id
		rp := replay{tr: tr, parent: id, req: o.id}
		j := jobs[o.inst]
		var (
			t    *tree.Tree
			err  error
			pr   harness.Prepared
			ao   *order.Order
			peak float64
		)
		t0 := time.Now()
		rp.span("workload.gen", func() { t, err = coldInstance(j) })
		t1 := time.Now()
		if err != nil {
			rep.fail("replay of op %d: %v", o.id, err)
			continue
		}
		cache := harness.NewInstanceCache()
		pid, _ := rp.span("harness.prepare", func() { pr = cache.Prepare(t) })
		t2 := time.Now()
		inner := replay{tr: tr, parent: pid, req: o.id}
		inner.span("order.mempo", func() { ao, peak = order.MinMemPostOrder(t) })
		t3 := time.Now()
		genNS += float64(t1.Sub(t0))
		prepNS += float64(t2.Sub(t1))
		mempoNS += float64(t3.Sub(t2))
		if len(ao.Seq) != len(pr.AO.Seq) || peak != pr.Peak {
			rep.fail("replay of op %d: memPO differs between order and harness", o.id)
		}
		if _, err := evaluate(t, pr.AO, pr.Peak, j.mf, rp, &lt); err != nil {
			rep.fail("replay of op %d: %v", o.id, err)
			continue
		}
		encodeSpan(rp, service.JobView{ID: o.jobID, Status: service.JobDone, Response: o.resp})
	}
	spans := tr.snapshot()
	for i := range spans {
		s := &spans[i]
		if (s.Name == "service.submit" || s.Name == "service.poll") && s.Parent < 0 {
			if jid, ok := jobSpan[s.Req]; ok {
				s.Parent = jid
			}
		}
	}
	self := selfTimes(spans)
	var jdur, jself float64
	var handlerMS []float64
	for _, s := range spans {
		switch s.Name {
		case "service.job":
			jdur += float64(s.dur())
			jself += float64(self[s.ID])
		case "service.submit", "service.poll":
			handlerMS = append(handlerMS, float64(s.dur())/1e6)
		}
	}
	rep.spans = spans
	rep.metrics["service.handler_ms"] = stats.Median(handlerMS)
	rep.metrics["service.self_share"] = ratio(jself, jdur)
	rep.metrics["workload.gen_ns_per_node"] = ratio(genNS, float64(lt.nodes))
	rep.metrics["harness.prepare_ns_per_node"] = ratio(prepNS, float64(lt.nodes))
	rep.metrics["order.mempo_ns_per_node"] = ratio(mempoNS, float64(lt.nodes))
	layerMetrics(rep, &lt, spans, replayed)
}
