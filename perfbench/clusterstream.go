package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/multitree"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// cluster-stream: a batch. A seeded multitree.MakeStream corpus of
// mixed random/chain/star jobs with Poisson arrivals and bursts, its
// activation orders and peaks precomputed during set-up, is scheduled
// again and again through multitree.Run (EASY, 32 processors, the
// corpus's suggested pool) with a single-producer observer attached.
// No HTTP, parse or preparation: MemBooking per event, admission and
// backfill, the event loop and obs.Emit do all the work. An op is one
// scheduled corpus.

const clusterProcs = 32

func streamOptions(cfg *config) *multitree.StreamOptions {
	if cfg.tiny {
		return &multitree.StreamOptions{Seed: cfg.seed, Jobs: 60, MinNodes: 40, MaxNodes: 800, Rungs: 5,
			BurstEvery: 8, BurstSize: 4}
	}
	return &multitree.StreamOptions{Seed: cfg.seed, Jobs: 2000}
}

// clusterSetups is how many times a run builds the corpus; setup_s is
// the median. Building takes about half a second, so five are cheap.
func clusterSetups(cfg *config) int {
	if cfg.tiny {
		return 2
	}
	return 5
}

// clusterRun is one timed multitree.Run.
type clusterRun struct {
	res     *multitree.Result
	elapsed time.Duration
	dropped uint64
}

func runCluster(specs []multitree.JobSpec, info *multitree.StreamInfo, pol multitree.Policy, observe bool) (*clusterRun, error) {
	var o *obs.Observer
	if observe {
		o = obs.New(&obs.Options{SingleProducer: true})
	}
	t0 := time.Now()
	res, err := multitree.Run(specs, &multitree.Options{Procs: clusterProcs, Mem: info.Mem, Policy: pol, Observer: o})
	el := time.Since(t0)
	var dropped uint64
	if o != nil {
		o.Close()
		dropped = o.DroppedEvents()
	}
	if err != nil {
		return nil, fmt.Errorf("multitree.Run: %w", err)
	}
	return &clusterRun{res: res, elapsed: el, dropped: dropped}, nil
}

// checkCluster is the gate on one cluster result: every node
// committed, no failed job, the pool never over-reserved, and the same
// result digest as every other repeat of the corpus (*digest is set by
// the first call). It returns the violations found.
func checkCluster(res *multitree.Result, info *multitree.StreamInfo, digest *uint64) []string {
	var bad []string
	if res.Events != info.TotalNodes {
		bad = append(bad, fmt.Sprintf("events %d, want %d nodes", res.Events, info.TotalNodes))
	}
	if res.FailedJobs != 0 {
		bad = append(bad, fmt.Sprintf("%d failed jobs", res.FailedJobs))
	}
	if res.PeakReserved > info.Mem {
		bad = append(bad, fmt.Sprintf("peak reserved %v over the pool %v", res.PeakReserved, info.Mem))
	}
	if len(res.Jobs) != info.Jobs {
		bad = append(bad, fmt.Sprintf("%d job results, want %d", len(res.Jobs), info.Jobs))
	}
	d := resultDigest(res)
	if *digest == 0 {
		*digest = d
	} else if d != *digest {
		bad = append(bad, fmt.Sprintf("result digest %016x differs from the first repeat's %016x", d, *digest))
	}
	return bad
}

// resultDigest hashes everything a Result reports.
func resultDigest(res *multitree.Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	f := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	n := func(v int) { f(float64(v)) }
	f(res.Makespan)
	f(res.BusyTime)
	f(res.PeakReserved)
	f(res.AvgQueue)
	n(res.MaxQueue)
	n(res.Events)
	n(res.FailedJobs)
	for i := range res.Jobs {
		j := &res.Jobs[i]
		h.Write([]byte(j.Name))
		n(j.Nodes)
		f(j.Arrival)
		f(j.Start)
		f(j.Finish)
		f(j.Slice)
		n(j.Attempts)
	}
	return h.Sum64() | 1 // never 0, which marks "unset"
}

// clusterLB is a lower bound on the corpus makespan: all work on all
// processors, and no job ending before its arrival plus its own bound.
func clusterLB(res *multitree.Result, info *multitree.StreamInfo) float64 {
	lb := info.TotalWork / clusterProcs
	for i := range res.Jobs {
		lb = max(lb, res.Jobs[i].Arrival+res.Jobs[i].Estimate)
	}
	return lb
}

func clusterStream(ctx context.Context, cfg *config) (*report, error) {
	rep := newReport()
	var (
		specs  []multitree.JobSpec
		info   *multitree.StreamInfo
		setups []float64
	)
	for i := 0; i < clusterSetups(cfg); i++ {
		specs = nil // let the previous corpus go before building the next
		t0 := time.Now()
		specs, info = multitree.MakeStream(streamOptions(cfg))
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.metrics["setup_s"] = stats.Median(setups)
	rep.samples["setup_s"] = setups

	var digest uint64
	gate := func(r *clusterRun) {
		rep.attempted++
		if bad := checkCluster(r.res, info, &digest); len(bad) > 0 {
			rep.fail("corpus run %d: %v", rep.attempted, bad)
		}
	}
	deadline := time.Now().Add(seconds(cfg.seconds))
	if !cfg.trace {
		var ms, nps []float64
		var last *clusterRun
		cpu0 := cpuTime()
		for len(ms) < 3 || time.Now().Before(deadline) {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			r, err := runCluster(specs, info, multitree.EASY{}, true)
			if err != nil {
				return nil, err
			}
			gate(r)
			ms = append(ms, float64(r.elapsed)/1e6)
			nps = append(nps, float64(r.res.Events)/r.elapsed.Seconds())
			last = r
		}
		cpu := cpuTime() - cpu0
		total := 0.0
		for _, m := range ms {
			total += m
		}
		rep.metrics["p50_ms"] = stats.Median(ms)
		rep.metrics["p99_ms"] = stats.Quantile(ms, 0.99)
		rep.metrics["max_rps"] = float64(len(ms)) / (total / 1e3)
		rep.metrics["nodes_per_s"] = stats.Median(nps)
		rep.metrics["cpu_ms_per_op"] = float64(cpu) / 1e6 / float64(len(ms))
		rep.metrics["peak_rss_mb"] = peakRSSMB()
		rep.metrics["makespan_over_lb"] = last.res.Makespan / clusterLB(last.res, info)
		rep.samples["run_ms"] = ms
		rep.samples["nodes_per_s"] = nps
		return rep, nil
	}
	return rep, traceCluster(ctx, specs, info, deadline, gate, rep)
}

// traceCluster alternates bare, observed and policy-wrapped runs of
// the corpus until the deadline (at least three rounds), then replays
// every job alone under a timed MemBooking at the slice it was granted.
func traceCluster(ctx context.Context, specs []multitree.JobSpec, info *multitree.StreamInfo,
	deadline time.Time, gate func(*clusterRun), rep *report) error {
	var (
		bare, observed, wrapped []float64
		dropped                 []float64
		pol                     *timedPolicy
		last                    *clusterRun
	)
	for len(bare) < 3 || time.Now().Before(deadline) {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		r, err := runCluster(specs, info, multitree.EASY{}, false)
		if err != nil {
			return err
		}
		gate(r)
		bare = append(bare, float64(r.elapsed))
		last = r
		if r, err = runCluster(specs, info, multitree.EASY{}, true); err != nil {
			return err
		}
		gate(r)
		observed = append(observed, float64(r.elapsed))
		dropped = append(dropped, float64(r.dropped))
		pol = &timedPolicy{inner: multitree.EASY{}}
		if r, err = runCluster(specs, info, pol, false); err != nil {
			return err
		}
		gate(r)
		wrapped = append(wrapped, float64(r.elapsed))
	}
	res := last.res
	events := float64(res.Events)

	// Replay: each job alone, at its granted slice, on the cluster's
	// processor count.
	byName := make(map[string]*multitree.JobSpec, len(specs))
	for i := range specs {
		byName[specs[i].Name] = &specs[i]
	}
	var coreNS, simNS float64
	var replayEvents, selects int
	for i := range res.Jobs {
		j := &res.Jobs[i]
		sp := byName[j.Name]
		mb, err := core.NewMemBooking(sp.Tree, j.Slice, sp.AO, sp.AO)
		if err != nil {
			return fmt.Errorf("replaying %s: %w", j.Name, err)
		}
		ts := &timedScheduler{Scheduler: mb}
		t0 := time.Now()
		sr, err := sim.Run(sp.Tree, clusterProcs, ts, &sim.Options{NoSchedTime: true})
		if err != nil {
			return fmt.Errorf("replaying %s: %w", j.Name, err)
		}
		simNS += float64(time.Since(t0) - ts.busy)
		coreNS += float64(ts.busy)
		replayEvents += sr.Events
		selects += ts.selects
	}

	runNS := stats.Median(wrapped)
	tr := newTracer()
	root := tr.add("multitree.run", -1, 0, 0, int64(runNS))
	tr.add("multitree.admit", root, 0, 0, int64(float64(pol.busy)))
	tr.add("core.replay", root, 0, 0, int64(coreNS))
	tr.add("obs.emit", -1, 0, 0, int64(max(stats.Median(observed)-stats.Median(bare), 0)))
	rep.spans = tr.snapshot()

	rep.metrics["trace.overhead_ratio"] = ratio(stats.Median(wrapped), stats.Median(bare))
	rep.metrics["obs.overhead_ratio"] = ratio(stats.Median(observed), stats.Median(bare))
	rep.metrics["obs.dropped_events"] = stats.Median(dropped)
	rep.metrics["multitree.ns_per_event"] = ratio(stats.Median(bare), events)
	rep.metrics["multitree.admit_ns_per_call"] = ratio(float64(pol.busy), float64(pol.calls))
	rep.metrics["multitree.admit_calls_per_job"] = ratio(float64(pol.calls), float64(len(res.Jobs)))
	rep.metrics["multitree.admit_yield"] = ratio(float64(pol.granted), float64(pol.calls))
	rep.metrics["multitree.self_ns_per_event"] = ratio(stats.Median(bare)-float64(pol.busy)-coreNS, events)
	rep.metrics["multitree.max_queue"] = float64(res.MaxQueue)
	rep.metrics["multitree.avg_queue"] = res.AvgQueue
	rep.metrics["multitree.mean_bsld"] = res.Metrics(clusterProcs, info.Mem, multitree.DefaultBSLDThreshold).BSLD.Mean
	rep.metrics["core.replay_ns_per_event"] = ratio(coreNS, float64(replayEvents))
	rep.metrics["core.ns_per_event"] = ratio(coreNS, float64(replayEvents))
	rep.metrics["core.select_calls_per_event"] = ratio(float64(selects), float64(replayEvents))
	rep.metrics["sim.self_ns_per_event"] = ratio(simNS, float64(replayEvents))
	for l, ns := range selfByLayer(rep.spans) {
		rep.metrics[l+".self_ms_per_op"] = ns / 1e6
	}
	rep.samples["bare_ns"] = bare
	rep.samples["observed_ns"] = observed
	rep.samples["wrapped_ns"] = wrapped
	return nil
}
