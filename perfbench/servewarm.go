package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/tree"
	"repro/internal/workload"
)

// serve-warm: an open loop of POST /schedule carrying inline .tree
// text. Trees are drawn with Zipf popularity from a few dozen synthetic
// trees of 1k–20k nodes, mem_factor from the paper's normalised bounds,
// and every tree is served once during set-up, so every timed request
// hits the service's content cache. This is the daemon's per-request
// path: JSON decode, .tree parse and validation, cache lookup,
// MemBooking under the simulator, lower bounds and the JSON answer.

// memFactors are the paper's normalised memory bounds.
var memFactors = []float64{1, 1.25, 2, 5}

// warmParams sizes the workload.
type warmParams struct {
	trees              int
	minNodes, maxNodes int
	nominal            float64   // requests/s of the latency phase
	ladder             []float64 // requests/s, ascending
	limitMS            float64   // p99 limit of a passing rung
	setups             int
}

func warmParamsFor(cfg *config) warmParams {
	if cfg.tiny {
		return warmParams{trees: 6, minNodes: 200, maxNodes: 1000, nominal: 40,
			ladder: []float64{20, 80}, limitMS: 500, setups: 2}
	}
	return warmParams{trees: 36, minNodes: 1000, maxNodes: 20000, nominal: 60,
		ladder: ladderRates(10, 400), limitMS: 300, setups: 3}
}

type warmTree struct {
	t    *tree.Tree
	text []byte // the .tree text as a JSON string literal
}

// warmCorpus is the seeded tree set with its popularity.
type warmCorpus struct {
	trees []warmTree
	// cdf is the Zipf popularity over ranks; rankTree maps a rank to a
	// tree. Ranks stride across the size-sorted trees, so every seed
	// puts a similar size mix at each popularity level.
	cdf      []float64
	rankTree []int
}

func buildWarmCorpus(seed uint64, p warmParams) (*warmCorpus, error) {
	rng := workload.NewRNG(seed ^ 0x7365727665) // "serve"
	c := &warmCorpus{}
	for _, n := range logSizes(p.minNodes, p.maxNodes, p.trees) {
		t, err := workload.Synthetic(workload.NewRNG(rng.Uint64()), workload.SyntheticOptions{Nodes: n})
		if err != nil {
			return nil, fmt.Errorf("synthetic tree: %w", err)
		}
		var b bytes.Buffer
		if err := tree.Write(&b, t); err != nil {
			return nil, fmt.Errorf("writing tree: %w", err)
		}
		text, err := json.Marshal(b.String())
		if err != nil {
			return nil, err
		}
		c.trees = append(c.trees, warmTree{t: t, text: text})
	}
	stride := coprimeStride(p.trees)
	sum := 0.0
	for r := 0; r < p.trees; r++ {
		sum += 1 / float64(r+1)
		c.cdf = append(c.cdf, sum)
		c.rankTree = append(c.rankTree, r*stride%p.trees)
	}
	for r := range c.cdf {
		c.cdf[r] /= sum
	}
	return c, nil
}

// coprimeStride returns the smallest stride ≥ n/3 coprime with n.
func coprimeStride(n int) int {
	gcd := func(a, b int) int {
		for b != 0 {
			a, b = b, a%b
		}
		return a
	}
	for s := max(n/3, 1); ; s++ {
		if gcd(s, n) == 1 {
			return s
		}
	}
}

// meanNodes is the popularity-weighted mean tree size: the expected
// nodes per request.
func (c *warmCorpus) meanNodes() float64 {
	sum, prev := 0.0, 0.0
	for r, cum := range c.cdf {
		sum += (cum - prev) * float64(c.trees[c.rankTree[r]].t.Len())
		prev = cum
	}
	return sum
}

// draw picks an instance (tree × memory factor) for the next request.
func (c *warmCorpus) draw(rng *workload.RNG) int {
	u := rng.Float64()
	r := 0
	for r < len(c.cdf)-1 && c.cdf[r] < u {
		r++
	}
	return c.rankTree[r]*len(memFactors) + rng.Intn(len(memFactors))
}

// body returns the request body of instance inst.
func (c *warmCorpus) body(inst int) ([]io.Reader, int64) {
	prefix := []byte(`{"procs":` + strconv.Itoa(serverProcs) + `,"mem_factor":` +
		strconv.FormatFloat(memFactors[inst%len(memFactors)], 'g', -1, 64) + `,"tree":`)
	text := c.trees[inst/len(memFactors)].text
	return []io.Reader{bytes.NewReader(prefix), bytes.NewReader(text), strings.NewReader("}")},
		int64(len(prefix) + len(text) + 1)
}

func serveWarm(ctx context.Context, cfg *config) (*report, error) {
	p := warmParamsFor(cfg)
	conns := genConns()
	rep := newReport()
	var tr *tracer
	wraps := []handlerWrapper{cfg.wrap}
	if cfg.trace {
		tr = newTracer()
		wraps = append(wraps, tr.middleware)
	}

	// Set-up, repeated: corpus, server start, one request per tree.
	var (
		corpus *warmCorpus
		srv    *server
		setups []float64
	)
	for i := 0; i < p.setups; i++ {
		if srv != nil {
			srv.stop()
		}
		t0 := time.Now()
		var err error
		if corpus, err = buildWarmCorpus(cfg.seed, p); err != nil {
			return nil, err
		}
		if srv, err = startServer(wraps...); err != nil {
			return nil, err
		}
		cl := newClient(srv.url, conns)
		for ti := range corpus.trees {
			body, size := corpus.body(ti*len(memFactors) + 2)
			if err := cl.do(http.MethodPost, "/schedule", -1, body, size, nil); err != nil {
				cl.close()
				srv.stop()
				return nil, fmt.Errorf("warming tree %d: %w", ti, err)
			}
		}
		cl.close()
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer srv.stop()
	rep.metrics["setup_s"] = stats.Median(setups)
	rep.samples["setup_s"] = setups

	// The benchmark's own evaluation of every instance.
	cache := harness.NewInstanceCache()
	want := make([]*service.Response, len(corpus.trees)*len(memFactors))
	for inst := range want {
		wt := corpus.trees[inst/len(memFactors)]
		pr := cache.Prepare(wt.t)
		r, err := evaluate(wt.t, pr.AO, pr.Peak, memFactors[inst%len(memFactors)], replay{}, nil)
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		want[inst] = r
	}

	cl := newClient(srv.url, conns)
	defer cl.close()
	rng := workload.NewRNG(cfg.seed ^ 0x6f7073) // "ops"
	nextID := 0
	newOp := func(int) *op {
		nextID++
		return &op{id: nextID, inst: corpus.draw(rng)}
	}
	step := func(o *op) (time.Duration, bool) {
		body, size := corpus.body(o.inst)
		var resp service.Response
		if err := cl.do(http.MethodPost, "/schedule", o.id, body, size, &resp); err != nil {
			o.failed, o.why = true, err.Error()
			return 0, true
		}
		o.resp = &resp
		if d := mismatch(&resp, want[o.inst]); d != "" {
			o.failed, o.why = true, fmt.Sprintf("op %d: %s", o.id, d)
		}
		return 0, true
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
	if !cfg.trace {
		rungs, err = openLoop(cfg, rep, p.nominal, 0.5, p.ladder, p.limitMS, rungFor, corpus.meanNodes())
		if err != nil {
			return nil, err
		}
	} else {
		var traced *rung
		if rungs, traced, err = tracedLoop(cfg, rep, tr, p.nominal, rungFor); err != nil {
			return nil, err
		}
		replayWarm(tr, traced, corpus, cache, rep)
	}
	after, err := cl.stats()
	if err != nil {
		return nil, err
	}
	collectOps(rep, rungs)
	rep.metrics["makespan_over_lb"] = makespanOverLB(rungs)
	cacheMetrics(rep, before, after)
	return rep, nil
}

// replayWarm replays the child layers of the traced rung's requests
// under their handler spans: decode, parse, validate, cache lookup,
// MemBooking under the simulator, bounds and encode.
func replayWarm(tr *tracer, traced *rung, corpus *warmCorpus, cache *harness.InstanceCache, rep *report) {
	handler := map[int]int{}
	for _, s := range tr.snapshot() {
		if s.Name == "service.handler" {
			handler[s.Req] = s.ID
		}
	}
	var (
		lt                         layerTotals
		bytesIn, decodeNS, parseNS float64
		validateNS, encodeNS       float64
		replayed                   int
	)
	for _, o := range traced.ops {
		hid, ok := handler[o.id]
		if !ok || o.failed {
			continue
		}
		replayed++
		rp := replay{tr: tr, parent: hid, req: o.id}
		parts, size := corpus.body(o.inst)
		body, _ := io.ReadAll(io.MultiReader(parts...))
		bytesIn += float64(size)
		var (
			req service.Request
			t   *tree.Tree
			err error
			pr  harness.Prepared
		)
		t0 := time.Now()
		rp.span("service.decode", func() {
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			err = dec.Decode(&req)
		})
		t1 := time.Now()
		if err != nil {
			rep.fail("replay of op %d: decode: %v", o.id, err)
			continue
		}
		rp.span("tree.parse", func() { t, err = tree.ReadLimited(strings.NewReader(req.Tree), 1<<20) })
		t2 := time.Now()
		if err != nil {
			rep.fail("replay of op %d: parse: %v", o.id, err)
			continue
		}
		rp.span("tree.validate", func() { err = t.Validate() })
		t3 := time.Now()
		if err != nil {
			rep.fail("replay of op %d: validate: %v", o.id, err)
			continue
		}
		decodeNS += float64(t1.Sub(t0))
		parseNS += float64(t2.Sub(t1))
		validateNS += float64(t3.Sub(t2))
		canon := corpus.trees[o.inst/len(memFactors)].t
		rp.span("harness.prepare", func() { pr = cache.Prepare(canon) })
		if _, err = evaluate(canon, pr.AO, pr.Peak, req.MemFactor, rp, &lt); err != nil {
			rep.fail("replay of op %d: %v", o.id, err)
			continue
		}
		encodeNS += float64(encodeSpan(rp, o.resp))
	}
	spans := tr.snapshot()
	self := selfTimes(spans)
	var handlerMS []float64
	var hdur, hself float64
	for _, s := range spans {
		if s.Name == "service.handler" {
			handlerMS = append(handlerMS, float64(s.dur())/1e6)
			hdur += float64(s.dur())
			hself += float64(self[s.ID])
		}
	}
	rep.spans = spans
	rep.metrics["service.handler_ms"] = stats.Median(handlerMS)
	rep.metrics["service.self_share"] = ratio(hself, hdur)
	rep.metrics["service.decode_ns_per_byte"] = ratio(decodeNS, bytesIn)
	rep.metrics["service.encode_us"] = ratio(encodeNS/1e3, float64(replayed))
	rep.metrics["tree.parse_ns_per_node"] = ratio(parseNS, float64(lt.nodes))
	rep.metrics["tree.validate_ns_per_node"] = ratio(validateNS, float64(lt.nodes))
	layerMetrics(rep, &lt, spans, replayed)
	rep.samples["service.handler_ms"] = handlerMS
}

// layerMetrics fills the replay-derived core, sim and bounds metrics
// and each layer's self time per replayed op.
func layerMetrics(rep *report, lt *layerTotals, spans []span, ops int) {
	rep.metrics["core.ns_per_event"] = ratio(lt.coreNS, float64(lt.events))
	rep.metrics["core.select_calls_per_event"] = ratio(float64(lt.selects), float64(lt.events))
	rep.metrics["sim.self_ns_per_event"] = ratio(lt.simNS, float64(lt.events))
	rep.metrics["bounds.ns_per_node"] = ratio(lt.bounds, float64(lt.nodes))
	self := selfByLayer(spans)
	for _, l := range layers {
		rep.metrics[l+".self_ms_per_op"] = ratio(self[l]/1e6, float64(ops))
	}
}

// cacheMetrics derives the content-cache metrics from /statsz.
func cacheMetrics(rep *report, before, after service.Stats) {
	hits := float64(after.CacheHits - before.CacheHits)
	misses := float64(after.CacheMisses - before.CacheMisses)
	rep.metrics["harness.cache_hit_ratio"] = ratio(hits, hits+misses)
	// Every miss inserts one tree and only eviction removes one.
	rep.metrics["harness.evictions"] = float64(after.CacheMisses - after.CachedTrees)
	rep.metrics["harness.cached_nodes"] = float64(after.CachedNodes)
	rep.metrics["service.inflight_hw"] = float64(after.InFlightHighWater)
}

// collectOps counts the rungs' ops into the report and keeps their
// latencies as raw samples.
func collectOps(rep *report, rungs []*rung) {
	for _, r := range rungs {
		rate := strconv.FormatFloat(r.rate, 'g', -1, 64)
		rep.samples["latency_ms@"+rate] = append(rep.samples["latency_ms@"+rate], r.lat...)
		rep.samples["nodes@"+rate] = append(rep.samples["nodes@"+rate], r.nodes...)
		rep.samples["p99_ms_by_rung"] = append(rep.samples["p99_ms_by_rung"], r.p99)
		rep.samples["rate_by_rung"] = append(rep.samples["rate_by_rung"], r.rate)
		for _, o := range r.ops {
			rep.attempted++
			if o.failed {
				rep.fail("%s", o.why)
			}
		}
	}
}

// makespanOverLB is the geometric mean of makespan / lower bound over
// the distinct instances the rungs were served.
func makespanOverLB(rungs []*rung) float64 {
	seen := map[int]bool{}
	var xs []float64
	for _, r := range rungs {
		for _, o := range r.ops {
			if o.failed || o.resp == nil || seen[o.inst] || o.resp.LowerBound <= 0 {
				continue
			}
			seen[o.inst] = true
			xs = append(xs, o.resp.Makespan/o.resp.LowerBound)
		}
	}
	return stats.Geomean(xs)
}
