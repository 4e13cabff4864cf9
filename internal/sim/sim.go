// Package sim is a discrete-event simulator for the parallel execution of
// a task tree on p processors under a scheduler. It is the measurement
// harness behind every experiment of the paper's §7: it reports the
// makespan, the peak of the model memory actually in use, the peak booked
// memory, and the wall-clock time spent inside the scheduler's own
// decision code (the "scheduling time" of Figures 5, 6 and 13).
package sim

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/pqueue"
	"repro/internal/tree"
)

// Options tune a simulation run.
type Options struct {
	// CheckMemory verifies after every event that the model memory in use
	// is at most the booked memory, and that the booked memory is at most
	// Bound. Requires Bound to be set.
	CheckMemory bool
	// Bound is the memory bound used by CheckMemory.
	Bound float64
	// MemTrace, when non-nil, receives (time, usedMemory, bookedMemory)
	// after every event batch; used to plot memory profiles.
	MemTrace func(t, used, booked float64)
	// NoSchedTime disables the wall-clock measurement of the scheduler's
	// decision time (Result.SchedTime stays zero). Measuring costs two
	// time.Now calls per event batch, which dominates the simulator's own
	// work on large sweeps; runs that do not report scheduling time
	// should set it.
	NoSchedTime bool
	// Clock replaces time.Now for the SchedTime measurement; tests use it
	// to make timing output deterministic. Setting Clock together with
	// NoSchedTime is contradictory (there is no measurement for the clock
	// to drive); Run rejects the combination instead of silently ignoring
	// the clock.
	Clock func() time.Time
}

// Result summarises a simulated execution.
type Result struct {
	// Makespan is the completion time of the whole tree.
	Makespan float64
	// PeakMem is the maximum model memory in use at any instant: outputs
	// of produced-but-unconsumed tasks plus execution and output data of
	// running tasks.
	PeakMem float64
	// PeakBooked is the maximum memory booked by the scheduler.
	PeakBooked float64
	// BusyTime is Σ t_i, the total processor-seconds of useful work.
	BusyTime float64
	// Events is the number of completion events processed.
	Events int
	// SchedTime is the wall-clock time spent inside the scheduler
	// (Init, OnFinish, Select), i.e. the runtime overhead of the policy.
	SchedTime time.Duration
}

// Utilization returns BusyTime / (p × Makespan).
func (r *Result) Utilization(p int) float64 {
	if r.Makespan == 0 {
		return 0
	}
	return r.BusyTime / (float64(p) * r.Makespan)
}

// Run simulates the execution of t on p processors driven by s. It
// returns a *core.ErrDeadlock when the scheduler can make no progress:
// no task is running and none can be launched, yet the tree is
// unfinished. Activation and MemBookingRedTree hit it when the memory
// bound is too small; MemBooking never does while M ≥ peak(AO)
// (Theorem 1).
func Run(t *tree.Tree, p int, s core.Scheduler, opts *Options) (*Result, error) {
	return new(Runner).Run(t, p, s, opts)
}

// Runner runs simulations while reusing the event heap and batch buffer
// across runs, so that repeated sweeps (one cell per run) allocate
// nothing per cell beyond the Result. The zero value is ready to use. A
// Runner is not safe for concurrent use; the sweep engine keeps one per
// worker.
type Runner struct {
	events pqueue.EventHeap
	batch  []tree.NodeID
	ids    []int32 // PopBatch destination, recycled across batches
}

// Run simulates the execution of t on p processors driven by s.
func (r *Runner) Run(t *tree.Tree, p int, s core.Scheduler, opts *Options) (*Result, error) {
	if opts == nil {
		opts = &Options{}
	}
	if p <= 0 {
		return nil, fmt.Errorf("sim: need at least one processor, got %d", p)
	}
	if opts.NoSchedTime && opts.Clock != nil {
		return nil, fmt.Errorf("sim: Options.Clock is set together with NoSchedTime, which disables the measurement the clock would drive")
	}
	n := t.Len()
	res := &Result{}

	wall := time.Now
	if opts.Clock != nil {
		wall = opts.Clock
	}
	measure := !opts.NoSchedTime

	if measure {
		start := wall()
		if err := s.Init(); err != nil {
			return nil, err
		}
		res.SchedTime += wall().Sub(start)
	} else if err := s.Init(); err != nil {
		return nil, err
	}

	events := &r.events
	events.Reset()
	// At most min(p, n) tasks run — and hence events are pending — at any
	// instant; pre-sizing the heap and both batch buffers from the tree
	// removes every growth re-allocation from the event loop.
	hint := p
	if n < hint {
		hint = n
	}
	events.Grow(hint)
	if cap(r.batch) < hint {
		r.batch = make([]tree.NodeID, 0, hint)
	}
	if cap(r.ids) < hint {
		r.ids = make([]int32, 0, hint)
	}
	now := 0.0
	used := 0.0 // model memory currently resident
	free := p
	finished := 0
	running := 0

	audit := func() error {
		booked := s.BookedMemory()
		if booked > res.PeakBooked {
			res.PeakBooked = booked
		}
		if opts.CheckMemory {
			eps := 1e-9 * (1 + math.Abs(opts.Bound))
			if used > booked+eps {
				return fmt.Errorf("sim: %s uses %g but booked only %g at t=%g", s.Name(), used, booked, now)
			}
			if booked > opts.Bound+eps {
				return fmt.Errorf("sim: %s booked %g over bound %g at t=%g", s.Name(), booked, opts.Bound, now)
			}
		}
		if opts.MemTrace != nil {
			opts.MemTrace(now, used, booked)
		}
		return nil
	}

	launch := func(batch []tree.NodeID) error {
		for _, i := range batch {
			if free == 0 {
				return fmt.Errorf("sim: %s over-selected tasks", s.Name())
			}
			free--
			running++
			used += t.Exec(i) + t.Out(i)
			if used > res.PeakMem {
				res.PeakMem = used
			}
			res.BusyTime += t.Time(i)
			events.Push(now+t.Time(i), int32(i))
		}
		return nil
	}

	var st time.Time
	if measure {
		st = wall()
	}
	first := s.Select(free)
	if measure {
		res.SchedTime += wall().Sub(st)
	}
	if err := launch(first); err != nil {
		return nil, err
	}
	if err := audit(); err != nil {
		return nil, err
	}
	if running == 0 && finished < n {
		return nil, &core.ErrDeadlock{Scheduler: s.Name(), Finished: finished, Total: n, Booked: s.BookedMemory()}
	}

	batch := r.batch[:0]
	for events.Len() > 0 {
		// Drain the whole same-time completion batch in one heap call.
		var ids []int32
		now, ids = events.PopBatch(r.ids[:0])
		r.ids = ids
		batch = batch[:0]
		for _, id := range ids {
			j := tree.NodeID(id)
			batch = append(batch, j)
			free++
			running--
			finished++
			res.Events++
			used -= t.Exec(j)
			for _, c := range t.Children(j) {
				used -= t.Out(c)
			}
			if t.Parent(j) == tree.None {
				// The computation is over: the final result leaves the
				// working memory, mirroring the scheduler freeing the
				// root's booking.
				used -= t.Out(j)
			}
		}
		r.batch = batch // keep the grown buffer even on early-error returns
		if measure {
			st = wall()
		}
		s.OnFinish(batch)
		sel := s.Select(free)
		if measure {
			res.SchedTime += wall().Sub(st)
		}
		if err := launch(sel); err != nil {
			return nil, err
		}
		if err := audit(); err != nil {
			return nil, err
		}
		if running == 0 && finished < n {
			return nil, &core.ErrDeadlock{Scheduler: s.Name(), Finished: finished, Total: n, Booked: s.BookedMemory()}
		}
	}
	r.batch = batch
	if finished != n {
		return nil, fmt.Errorf("sim: finished %d of %d tasks", finished, n)
	}
	res.Makespan = now
	return res, nil
}
