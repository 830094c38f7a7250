package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"

	"regalloc"
	"regalloc/internal/obs"
	"regalloc/internal/ssa"
	"regalloc/internal/workloads"
)

// SSARow is one routine under one register-file size: the SSA
// allocator's construction and spill figures next to the Chaitin and
// Briggs costs on the same unit.
type SSARow struct {
	Program string
	Routine string
	KInt    int
	KFloat  int

	// SSA construction shape.
	Phis       int
	CopyProps  int
	SplitEdges int

	// Pressure after pre-spilling (the exact color count used).
	MaxLiveInt   int
	MaxLiveFloat int

	Rounds    int // pre-spill rounds
	Spilled   int
	CostMilli int64

	ChaitinCostMilli int64
	BriggsCostMilli  int64

	// Irreducible marks units whose operand pressure no spilling can
	// fit (a call reading more distinct values of one class than K);
	// the Figure 4 allocators fail these units the same way. All other
	// columns are zero for such rows.
	Irreducible bool
}

// SSAStudyResult is the SSA-form chordal allocator study.
type SSAStudyResult struct {
	Rows []SSARow
}

// SSAStudy runs the SSA-form chordal allocator over every routine of
// the Figure 5 corpus at the paper's machine size and under halved
// register files, reporting construction shape (phis, propagated
// copies, split edges), the exact post-spill MAXLIVE it colors with,
// and its spill totals next to Chaitin's and Briggs's on the same
// units. Runs feed the package observer.
func SSAStudy() (*SSAStudyResult, error) {
	out := &SSAStudyResult{}
	for _, w := range workloads.All() {
		prog, err := regalloc.Compile(w.Source)
		if err != nil {
			return nil, fmt.Errorf("ssa study: compile %s: %w", w.Program, err)
		}
		for _, routine := range w.Routines {
			for _, kk := range [][2]int{{16, 8}, {8, 4}} {
				f := prog.Func(routine)
				if f == nil {
					return nil, fmt.Errorf("ssa study: %s: no routine %s", w.Program, routine)
				}
				row := SSARow{Program: w.Program, Routine: routine, KInt: kk[0], KFloat: kk[1]}
				opt := regalloc.DefaultOptions()
				opt.KInt, opt.KFloat = kk[0], kk[1]
				tr := obs.New(observer, routine)
				sres, err := ssa.Allocate(context.Background(), f.Clone(), opt.K(), opt.CostParams, tr)
				if errors.Is(err, ssa.ErrIrreducible) {
					row.Irreducible = true
					out.Rows = append(out.Rows, row)
					continue
				}
				if err != nil {
					return nil, fmt.Errorf("ssa study: %s/%s at (%d,%d): %w", w.Program, routine, kk[0], kk[1], err)
				}
				st := &sres.Stats
				row.Phis = st.Phis
				row.CopyProps = st.CopyProps
				row.SplitEdges = st.SplitEdges
				row.MaxLiveInt = st.MaxLiveInt
				row.MaxLiveFloat = st.MaxLiveFloat
				row.Rounds = len(st.Rounds)
				row.Spilled = st.TotalSpilled()
				row.CostMilli = int64(math.Round(st.TotalSpillCost() * 1000))
				for _, h := range []regalloc.Heuristic{regalloc.Chaitin, regalloc.Briggs} {
					o := opt
					o.Heuristic = h
					o.Observer = observer
					res, err := prog.Allocate(routine, o)
					if err != nil {
						// The Figure 4 cycle hits the same operand-
						// pressure wall ("a spill temporary must itself
						// spill"); report the SSA side alone.
						continue
					}
					if h == regalloc.Chaitin {
						row.ChaitinCostMilli = int64(math.Round(res.TotalSpillCost() * 1000))
					} else {
						row.BriggsCostMilli = int64(math.Round(res.TotalSpillCost() * 1000))
					}
				}
				out.Rows = append(out.Rows, row)
			}
		}
	}
	return out, nil
}

// String renders the study table.
func (r *SSAStudyResult) String() string {
	var b strings.Builder
	b.WriteString("SSA-form chordal allocation over the Figure 5 corpus\n")
	fmt.Fprintf(&b, "%-8s %-8s %7s | %4s %5s %5s | %7s %6s | %6s %9s | %9s %9s\n",
		"program", "routine", "k", "phis", "cprop", "split", "maxlive", "rounds", "spills", "cost", "chaitin", "briggs")
	b.WriteString(strings.Repeat("-", 110) + "\n")
	for _, row := range r.Rows {
		k := fmt.Sprintf("(%d,%d)", row.KInt, row.KFloat)
		if row.Irreducible {
			fmt.Fprintf(&b, "%-8s %-8s %7s | operand pressure irreducible at this K (Figure 4 allocators fail the same unit)\n",
				row.Program, row.Routine, k)
			continue
		}
		ml := fmt.Sprintf("(%d,%d)", row.MaxLiveInt, row.MaxLiveFloat)
		fmt.Fprintf(&b, "%-8s %-8s %7s | %4d %5d %5d | %7s %6d | %6d %9.3f | %9.3f %9.3f\n",
			row.Program, row.Routine, k, row.Phis, row.CopyProps, row.SplitEdges,
			ml, row.Rounds, row.Spilled, float64(row.CostMilli)/1000,
			float64(row.ChaitinCostMilli)/1000, float64(row.BriggsCostMilli)/1000)
	}
	b.WriteString("cost columns are spill-cost units; maxlive is the exact per-class color count the greedy colorer used\n")
	return b.String()
}
