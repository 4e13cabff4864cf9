package moldable

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/pqueue"
	"repro/internal/tree"
)

// Result summarises a moldable simulation.
type Result struct {
	// Makespan is the completion time of the whole tree.
	Makespan float64
	// PeakMem is the peak model memory including workspaces.
	PeakMem float64
	// PeakBooked is the peak booked memory.
	PeakBooked float64
	// MaxWidth is the widest allocation granted to any task.
	MaxWidth int
	// WideTasks counts tasks that ran on more than one processor.
	WideTasks int
	// SchedTime is the wall-clock time spent in the scheduler.
	SchedTime time.Duration
}

// Options tune a moldable simulation.
type Options struct {
	// CheckMemory verifies used ≤ booked ≤ Bound after every event.
	CheckMemory bool
	Bound       float64
}

// Run simulates the moldable execution of t on p processors: each launch
// occupies its width in processors for the profile-adjusted duration and
// holds its workspace in memory until completion. A stall is reported
// as *core.ErrDeadlock, the deadlock type every engine shares.
func Run(t *tree.Tree, p int, s Scheduler, prof *Profile, opts *Options) (*Result, error) {
	if opts == nil {
		opts = &Options{}
	}
	if p <= 0 {
		return nil, fmt.Errorf("moldable: need at least one processor, got %d", p)
	}
	if prof == nil {
		prof = DefaultProfile(t)
	}
	if err := prof.Validate(t); err != nil {
		return nil, err
	}
	res := &Result{}
	start := time.Now()
	if err := s.Init(); err != nil {
		return nil, err
	}
	res.SchedTime += time.Since(start)

	n := t.Len()
	var events pqueue.EventHeap
	now := 0.0
	used := 0.0
	free := p
	finished := 0
	running := 0
	width := make(map[tree.NodeID]int, p)

	audit := func() error {
		booked := s.BookedMemory()
		if booked > res.PeakBooked {
			res.PeakBooked = booked
		}
		if opts.CheckMemory {
			eps := 1e-9 * (1 + math.Abs(opts.Bound))
			if used > booked+eps {
				return fmt.Errorf("moldable: %s uses %g but booked %g at t=%g", s.Name(), used, booked, now)
			}
			if booked > opts.Bound+eps {
				return fmt.Errorf("moldable: %s booked %g over bound %g at t=%g", s.Name(), booked, opts.Bound, now)
			}
		}
		return nil
	}

	launch := func(batch []Launch) error {
		for _, l := range batch {
			if l.Procs < 1 || l.Procs > free {
				return fmt.Errorf("moldable: %s granted %d processors with %d free", s.Name(), l.Procs, free)
			}
			free -= l.Procs
			running++
			width[l.Node] = l.Procs
			if l.Procs > res.MaxWidth {
				res.MaxWidth = l.Procs
			}
			if l.Procs > 1 {
				res.WideTasks++
			}
			used += t.Exec(l.Node) + t.Out(l.Node) + prof.ExtraMem(l.Node, l.Procs)
			if used > res.PeakMem {
				res.PeakMem = used
			}
			events.Push(now+prof.Time(t, l.Node, l.Procs), int32(l.Node))
		}
		return nil
	}

	st := time.Now()
	first := s.SelectMoldable(free)
	res.SchedTime += time.Since(st)
	if err := launch(first); err != nil {
		return nil, err
	}
	if err := audit(); err != nil {
		return nil, err
	}
	if running == 0 && finished < n {
		return nil, &core.ErrDeadlock{Scheduler: s.Name(), Finished: finished, Total: n, Booked: s.BookedMemory()}
	}

	var batch []tree.NodeID
	for events.Len() > 0 {
		now = events.Min().Time
		batch = batch[:0]
		for events.Len() > 0 && events.Min().Time == now {
			batch = append(batch, tree.NodeID(events.Pop().ID))
		}
		for _, j := range batch {
			q := width[j]
			delete(width, j)
			free += q
			running--
			finished++
			used -= t.Exec(j) + prof.ExtraMem(j, q)
			for _, c := range t.Children(j) {
				used -= t.Out(c)
			}
			if t.Parent(j) == tree.None {
				used -= t.Out(j)
			}
		}
		st := time.Now()
		s.OnFinish(batch)
		sel := s.SelectMoldable(free)
		res.SchedTime += time.Since(st)
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
	if finished != n {
		return nil, fmt.Errorf("moldable: finished %d of %d tasks", finished, n)
	}
	res.Makespan = now
	return res, nil
}
