package alloc_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"regalloc/internal/alloc"
	"regalloc/internal/color"
	"regalloc/internal/ig"
	"regalloc/internal/ir"
	"regalloc/internal/obs"
	"regalloc/internal/pcolor"
)

// pcolorPassRef is the coloring half of a UsePColor pass as it was
// written inline in the Figure 4 cycle, with its lowest-free-color
// loop twice, kept as the reference pcolorStep is held to. It returns
// the pass's colors, its spill set in order, and how many ordinary
// ranges spill temporaries evicted. The worker count is the one the
// cycle resolved an unset count to, the only one ever set.
func pcolorPassRef(work *ir.Func, g *ig.Graph, costs []float64, kf color.K, opt alloc.Options, tr *obs.Tracer) ([]int16, []int32, int) {
	// Speculative engine: color with an unbounded first-fit
	// palette (seeded, deterministic per (seed, workers)), then
	// spill every node whose color landed at or beyond its
	// class budget. The survivors keep their colors — a subset
	// of a proper coloring is proper — so a pass whose palette
	// fits the budget is a finished allocation.
	t0 := tr.Begin(obs.PhaseColor)
	workers := alloc.DefaultPColorWorkers
	evictions := 0
	colors, _ := pcolor.Color(g, pcolor.Options{Workers: workers, Seed: opt.PColorSeed, Algo: opt.PColorAlgo, Tracer: tr})
	var marked []int32
	for v := int32(0); v < int32(len(colors)); v++ {
		if int(colors[v]) >= kf(g.Class(v)) {
			colors[v] = color.NoColor
			marked = append(marked, v)
		}
	}
	// Optimistic rescue, the same move Select makes for spill
	// candidates: with every over-budget node cleared, first-fit
	// each one again against the surviving assignment — spilling
	// one over-budget node often frees a low color for another.
	// Sequential, so the outcome is deterministic. Nodes that
	// still don't fit are the pass's spill set. Spill
	// temporaries go first: they cannot be spilled again, so
	// they must claim a freed color before ordinary ranges
	// (created late, their node numbers sort them last, which is
	// exactly the wrong rescue order for them).
	order := marked
	for _, v := range marked {
		if work.RegFlags(ir.Reg(v))&ir.FlagSpillTemp != 0 {
			order = make([]int32, 0, len(marked))
			for _, w := range marked {
				if work.RegFlags(ir.Reg(w))&ir.FlagSpillTemp != 0 {
					order = append(order, w)
				}
			}
			for _, w := range marked {
				if work.RegFlags(ir.Reg(w))&ir.FlagSpillTemp == 0 {
					order = append(order, w)
				}
			}
			break
		}
	}
	var over []int32
	var used []bool
	for _, v := range order {
		kn := kf(g.Class(v))
		if cap(used) < kn {
			used = make([]bool, kn)
		}
		used = used[:kn]
		for j := range used {
			used[j] = false
		}
		for _, nb := range g.Neighbors(v) {
			if c := colors[nb]; c != color.NoColor && int(c) < kn {
				used[c] = true
			}
		}
		c := color.NoColor
		inUse := 0
		for j := 0; j < kn; j++ {
			if used[j] {
				inUse++
			} else if c == color.NoColor {
				c = int16(j)
			}
		}
		if c == color.NoColor && work.RegFlags(ir.Reg(v))&ir.FlagSpillTemp != 0 {
			// A spill temporary must not spill again. Apply
			// Chaitin's rule in miniature: evict the cheapest
			// ordinary neighbor (spilling it instead) until a
			// color frees up. Evictions target real ranges, so
			// this is also what makes the cost-blind engine
			// reduce pressure and converge; a temporary with only
			// temporary neighbors falls through to the same hard
			// error the sequential path reports.
			for c == color.NoColor {
				w := int32(-1)
				for _, nb := range g.Neighbors(v) {
					cb := colors[nb]
					if cb == color.NoColor || int(cb) >= kn {
						continue
					}
					if work.RegFlags(ir.Reg(nb))&ir.FlagSpillTemp != 0 {
						continue
					}
					if w < 0 || costs[nb] < costs[w] || (costs[nb] == costs[w] && nb < w) {
						w = nb
					}
				}
				if w < 0 {
					break
				}
				tr.SpillDecision(w, int32(g.Degree(w)), costs[w], costs[w])
				colors[w] = color.NoColor
				over = append(over, w)
				evictions++
				for j := range used {
					used[j] = false
				}
				for _, nb := range g.Neighbors(v) {
					if cb := colors[nb]; cb != color.NoColor && int(cb) < kn {
						used[cb] = true
					}
				}
				for j := 0; j < kn; j++ {
					if !used[j] {
						c = int16(j)
						break
					}
				}
			}
		}
		if c == color.NoColor {
			tr.SpillDecision(v, int32(g.Degree(v)), costs[v], float64(g.Degree(v)))
			over = append(over, v)
			continue
		}
		colors[v] = c
		tr.ColorReuse(v, int32(g.Degree(v)), inUse, c)
	}
	tr.End(obs.PhaseColor, t0)
	return colors, over, evictions
}

// decisions is the spill-decision and color-reuse events of a
// capture, with their clock readings cleared.
func decisions(c *capture) []obs.Event {
	var evs []obs.Event
	for _, e := range c.events {
		if e.Kind == obs.KindSpillDecision || e.Kind == obs.KindColorReuse {
			e.Time = time.Time{}
			evs = append(evs, e)
		}
	}
	return evs
}

// TestPColorStepMatchesReference runs the Figure 4 cycle by hand under
// UsePColor, on the suite and 100 generated CFGs at (16,8), (8,4),
// (6,4) and (4,4), with the speculative engine on seeds 1, 7 and 42
// and Jones–Plassmann on seed 1. Every pass is colored twice, by
// pcolorStep and by pcolorPassRef on the same graph, and must give the
// same colors, the same spill set in the same order, and the same
// spill-decision and color-reuse events. The reference must evict at
// least once, or the eviction path went unchecked.
func TestPColorStepMatchesReference(t *testing.T) {
	us := suiteAndFuzzUnits(t)
	engines := []struct {
		name string
		seed uint64
		algo pcolor.Algo
	}{
		{"s1", 1, pcolor.Speculative},
		{"s7", 7, pcolor.Speculative},
		{"s42", 42, pcolor.Speculative},
		{"jp-s1", 1, pcolor.JonesPlassmann},
	}
	passes, evictions := 0, 0
	for _, k := range [][2]int{{16, 8}, {8, 4}, {6, 4}, {4, 4}} {
		for _, e := range engines {
			opt := alloc.DefaultOptions()
			opt.KInt, opt.KFloat = k[0], k[1]
			opt.UsePColor, opt.PColorSeed, opt.PColorAlgo = true, e.seed, e.algo
			kf := opt.K()
			for _, u := range us {
				p, err := alloc.FirstPColorPass(u.prog.Func(u.routine), opt)
				if err != nil {
					t.Fatal(err)
				}
				for pass := 0; pass < opt.MaxPasses; pass++ {
					label := fmt.Sprintf("%s under pcolor/%s at %v, pass %d", u.name, e.name, k, pass)
					var gotEv, wantEv capture
					want, wantSpilled, ev := pcolorPassRef(p.Work, p.G, p.Costs, kf, opt, obs.New(&wantEv, u.routine))
					got := p.Color(obs.New(&gotEv, u.routine))
					passes++
					evictions += ev
					if !reflect.DeepEqual(got.Colors, want) {
						t.Fatalf("%s: colors differ from the reference", label)
					}
					if !reflect.DeepEqual(got.Spilled, wantSpilled) {
						t.Fatalf("%s: spilled %v, reference %v", label, got.Spilled, wantSpilled)
					}
					if !reflect.DeepEqual(decisions(&gotEv), decisions(&wantEv)) {
						t.Fatalf("%s: spill-decision and color-reuse events differ from the reference", label)
					}
					if len(got.Spilled) == 0 || p.SpillsTemp(got.Spilled) {
						break
					}
					if p, err = p.Next(got.Spilled); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	t.Logf("%d passes checked, %d evictions", passes, evictions)
	if evictions == 0 {
		t.Fatal("no spill temporary evicted a neighbor; the eviction path went unchecked")
	}
}
