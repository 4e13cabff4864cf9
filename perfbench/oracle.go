package main

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/order"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/tree"
)

// serverProcs is the processor count every request names explicitly
// (the service's own default), so the oracle evaluates the same
// instance the server does.
const serverProcs = 8

// replay places the spans of one op's replayed child layers; the zero
// value (no tracer) records nothing.
type replay struct {
	tr          *tracer
	parent, req int
}

func (rp replay) span(name string, f func()) (id int, start int64) {
	if rp.tr == nil {
		f()
		return -1, 0
	}
	start = rp.tr.now()
	f()
	return rp.tr.add(name, rp.parent, rp.req, start, rp.tr.now()), start
}

// layerTotals accumulates replayed per-layer work across ops.
type layerTotals struct {
	nodes, events, selects int
	coreNS, simNS, bounds  float64
}

// evaluate schedules t at mf × peak(ao) on serverProcs processors with
// MemBooking and memPO as both orders, computing the response fields
// the gate compares — the benchmark's own evaluation of the instance,
// built from the program's public functions. Replayed child spans go
// under rp; layer totals into lt when non-nil.
func evaluate(t *tree.Tree, ao *order.Order, peak, mf float64, rp replay, lt *layerTotals) (*service.Response, error) {
	m := mf * peak
	var (
		mb  *core.MemBooking
		err error
	)
	rp.span("core.new", func() { mb, err = core.NewMemBooking(t, m, ao, ao) })
	if err != nil {
		return nil, fmt.Errorf("building MemBooking: %w", err)
	}
	var sched core.Scheduler = mb
	ts := &timedScheduler{Scheduler: mb}
	if rp.tr != nil {
		sched = ts
	}
	var res *sim.Result
	t0 := time.Now()
	simID, simStart := rp.span("sim.run", func() {
		res, err = sim.Run(t, serverProcs, sched, &sim.Options{CheckMemory: true, Bound: m, NoSchedTime: true})
	})
	simNS := float64(time.Since(t0))
	if err != nil {
		return nil, fmt.Errorf("simulating: %w", err)
	}
	if rp.tr != nil {
		rp.tr.add("core.scheduler", simID, rp.req, simStart, simStart+int64(ts.busy))
	}
	var classical, memLB float64
	t1 := time.Now()
	rp.span("bounds.eval", func() {
		classical = bounds.Classical(t, serverProcs)
		memLB, err = bounds.Memory(t, m)
	})
	if err != nil {
		return nil, fmt.Errorf("memory bound: %w", err)
	}
	if lt != nil {
		lt.bounds += float64(time.Since(t1))
		lt.nodes += t.Len()
		lt.events += res.Events
		lt.selects += ts.selects
		lt.coreNS += float64(ts.busy)
		lt.simNS += simNS - float64(ts.busy)
	}
	return &service.Response{
		Nodes:      t.Len(),
		Makespan:   res.Makespan,
		PeakMem:    res.PeakMem,
		Events:     res.Events,
		LowerBound: max(classical, memLB),
	}, nil
}

// encodeSpan replays the service's JSON encoding of a response.
func encodeSpan(rp replay, v any) time.Duration {
	t0 := time.Now()
	rp.span("service.encode", func() { json.Marshal(v) })
	return time.Since(t0)
}

// mismatch compares a served response with the benchmark's evaluation
// field by field and names the first difference ("" when they agree).
func mismatch(got, want *service.Response) string {
	switch {
	case got == nil:
		return "no response"
	case got.Nodes != want.Nodes:
		return fmt.Sprintf("nodes %d, want %d", got.Nodes, want.Nodes)
	case got.Makespan != want.Makespan:
		return fmt.Sprintf("makespan %v, want %v", got.Makespan, want.Makespan)
	case got.PeakMem != want.PeakMem:
		return fmt.Sprintf("peak_mem %v, want %v", got.PeakMem, want.PeakMem)
	case got.Events != want.Events:
		return fmt.Sprintf("events %d, want %d", got.Events, want.Events)
	case got.LowerBound != want.LowerBound:
		return fmt.Sprintf("lower_bound %v, want %v", got.LowerBound, want.LowerBound)
	}
	return ""
}
