package alloc

import (
	"context"
	"fmt"
	"reflect"
	"sync"

	"regalloc/internal/ir"
	"regalloc/internal/machine"
	"regalloc/internal/obs"
	"regalloc/internal/spill"
)

// Starts shares pass 0's Build among several runs over one function.
// The Figure 4 heuristics differ only after Build: the first Build of
// a run reads nothing of its options but the coalescing mode (with K
// under the conservative test), the machine model, rematerialization
// and the cost parameters. So runs that agree on those renumber,
// coalesce, build the graph and estimate costs identically, and
// Starts groups the runs it is made for by exactly those options.
//
// In a group of two or more, the first run to reach pass 0 builds,
// timed and traced in its own pass as an unshared run's Build is.
// Runs that reach it while that Build runs wait for it, for as long as
// their contexts allow; if it fails, the next of them builds. Then every
// run in the group forks a private copy of the function and its
// liveness, which its later passes rewrite, and reads the graph, the
// costs, the remat values and the CFG analysis shared; nothing writes
// those after the Build. A run that did not build records no
// liveness or CFG runs in pass 0 and emits no coalescing or
// graph-build events there. A run alone in its group and an ssa run
// (which has no Figure 4 cycle) build as RunContext does: in place,
// with no fork. irc runs join the group of their Figure 4 baseline.
//
// A Starts is safe for concurrent use by its runs.
type Starts struct {
	f      *ir.Func
	groups []*startGroup
}

// startKey is every option pass 0's Build reads.
type startKey struct {
	coalesce, conservative bool
	kInt, kFloat           int // zero unless conservative
	machine                *machine.Model
	remat                  bool
	costs                  spill.CostParams
}

// startGroup is the Build its members share.
type startGroup struct {
	key     startKey
	opt     Options // the Figure 4 options of the group's first member
	members int

	mu    sync.Mutex
	ready chan struct{} // closed when the running Build ends; nil when none runs
	work  *ir.Func      // the built function; nil until a Build succeeds
	b     *built
}

// startOf returns the key of the Build that opens opt's Figure 4
// cycle and the options the cycle runs under, or false when opt runs
// no Figure 4 cycle.
func startOf(opt Options) (startKey, Options, bool) {
	if opt.runsSSA() {
		return startKey{}, opt, false
	}
	if opt.runsIRC() {
		opt = ircBaseline(opt)
	}
	k := startKey{coalesce: opt.Coalesce, machine: opt.Machine, remat: opt.Rematerialize, costs: opt.CostParams}
	if opt.Coalesce && opt.ConservativeCoalesce {
		k.conservative = true
		k.kInt, k.kFloat = opt.KInt, opt.KFloat
	}
	return k, opt, true
}

// NewStarts returns the memo for runs over f, one element of opts per
// run. Options of two or more runs that read the same pass 0 Build
// make a group.
func NewStarts(f *ir.Func, opts []Options) *Starts {
	var all []*startGroup
	for _, o := range opts {
		k, co, ok := startOf(o)
		if !ok {
			continue
		}
		if g := findGroup(all, k); g != nil {
			g.members++
		} else {
			all = append(all, &startGroup{key: k, opt: co, members: 1})
		}
	}
	s := &Starts{f: f}
	for _, g := range all {
		if g.members > 1 {
			s.groups = append(s.groups, g)
		}
	}
	return s
}

func findGroup(groups []*startGroup, k startKey) *startGroup {
	for _, g := range groups {
		if g.key == k {
			return g
		}
	}
	return nil
}

// RunContext is alloc.RunContext for one of the runs s was made for:
// it allocates s's function under opt, sharing pass 0's Build with
// the run's group.
func (s *Starts) RunContext(ctx context.Context, opt Options) (*Result, error) {
	return runContext(ctx, s.f, opt, s)
}

// first runs pass 0's Build for a Figure 4 run of f under opt and
// returns the function the run allocates and what the Build left. A
// run with no group builds on a private clone of f; a group member
// forks the group's Build, running it first if no member has and
// waiting for it if another member is.
func (s *Starts) first(ctx context.Context, f *ir.Func, opt Options, tr *obs.Tracer) (*ir.Func, *built, error) {
	var grp *startGroup
	if s != nil {
		k, _, _ := startOf(opt)
		grp = findGroup(s.groups, k)
	}
	if grp == nil {
		work := f.Clone()
		b, err := build(ctx, work, nil, opt, tr)
		return work, b, err
	}
	grp.mu.Lock()
	for grp.work == nil && grp.ready != nil {
		ready := grp.ready
		grp.mu.Unlock()
		select {
		case <-ready:
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
		grp.mu.Lock()
	}
	own := grp.work == nil
	if own {
		// Build unlocked: the Build emits to the run's observer. A
		// failed Build (a cancelled coalescer) leaves the group
		// unbuilt for the next member to try.
		ready := make(chan struct{})
		grp.ready = ready
		grp.mu.Unlock()
		work := f.Clone()
		b, err := build(ctx, work, nil, opt, tr)
		grp.mu.Lock()
		grp.ready = nil
		close(ready)
		if err != nil {
			grp.mu.Unlock()
			return nil, nil, err
		}
		grp.work, grp.b = work, b
	}
	work, shared := grp.work, grp.b
	grp.mu.Unlock()

	pc := *shared.pc
	pc.lv = shared.pc.lv.Clone()
	if !own {
		pc.livenessRuns, pc.cfgRuns = 0, 0
	}
	b := *shared
	b.pc = &pc
	return work.Clone(), &b, nil
}

// Check rebuilds every Build s has shared from a fresh clone of its
// function. It returns how many it checked and the first part of a
// shared one that differs from its rebuild: a run that wrote through
// the shared start instead of its fork. Call it once the runs have
// returned.
func (s *Starts) Check() (int, error) {
	checked := 0
	for _, grp := range s.groups {
		grp.mu.Lock()
		work, b := grp.work, grp.b
		grp.mu.Unlock()
		if work == nil {
			continue
		}
		fresh := s.f.Clone()
		fb, err := build(context.Background(), fresh, nil, grp.opt, nil)
		if err != nil {
			return checked, err
		}
		checked++
		for _, part := range []struct {
			name      string
			got, want any
		}{
			{"function", work, fresh},
			{"liveness", b.pc.lv, fb.pc.lv},
			{"CFG analysis", b.pc.info, fb.pc.info},
			{"graph", b.g, fb.g},
			{"machine graph", b.mg, fb.mg},
			{"costs", b.costs, fb.costs},
			{"remat flags", b.rematOK, fb.rematOK},
			{"remat values", b.rematVals, fb.rematVals},
		} {
			if !reflect.DeepEqual(part.got, part.want) {
				return checked, fmt.Errorf("alloc: %s: the shared start's %s differs from a fresh build", s.f.Name, part.name)
			}
		}
	}
	return checked, nil
}
