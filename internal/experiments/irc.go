package experiments

import (
	"fmt"
	"math"
	"strings"

	"regalloc"
	"regalloc/internal/ir"
	"regalloc/internal/workloads"
)

// IRCRow is one routine of the Figure 5 corpus allocated twice at the
// paper's machine size: once by Briggs with the conservative-coalesce
// pre-pass (the strongest single-shot configuration) and once by
// iterated register coalescing. The move columns count the register
// copies each allocator leaves in the unit; the cost columns are the
// total estimated spill cost, which IRC's decoupled design holds
// equal to Briggs with ConservativeCoalesce by construction (not to
// the aggressively coalescing default Briggs, which at (16,8) spills
// less on seven of the 29 suite units, DQRDC, SVD, GRADNT and QSORT
// among them, and more on three).
type IRCRow struct {
	Program string
	Routine string

	BriggsMoves int
	IRCMoves    int

	BriggsCostMilli int64
	IRCCostMilli    int64
}

// IRCStudyResult is the iterated-register-coalescing study: per-unit
// surviving copies under Briggs conservative coalescing versus IRC,
// plus the aggregate over move-heavy units (>= 4 copies surviving the
// pre-pass — the units where coalescing quality is measurable).
type IRCStudyResult struct {
	Rows []IRCRow

	// Aggregates over move-heavy units only.
	HeavyBriggsMoves int
	HeavyIRCMoves    int
}

// EliminatedPct is the share of copies IRC removed from the
// move-heavy units, as a percentage of what the Briggs pre-pass left.
func (r *IRCStudyResult) EliminatedPct() float64 {
	if r.HeavyBriggsMoves == 0 {
		return 0
	}
	return 100 * float64(r.HeavyBriggsMoves-r.HeavyIRCMoves) / float64(r.HeavyBriggsMoves)
}

// irMoveCount counts the register-copy instructions left in an
// allocated unit.
func irMoveCount(f *ir.Func) int {
	n := 0
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].IsMove() {
				n++
			}
		}
	}
	return n
}

// IRCStudy allocates every routine of the Figure 5 corpus at the
// paper's machine size under Briggs conservative coalescing and under
// George–Appel iterated register coalescing, reporting the copies
// each leaves behind. The single conservative pre-pass tests each
// move once against the full-pressure graph; IRC retests every move
// as simplification lowers its neighborhood's degrees, so the gap is
// the value of iteration. Runs feed the package observer.
func IRCStudy() (*IRCStudyResult, error) {
	briggs := defaultOptions()
	briggs.ConservativeCoalesce = true

	ircOpt := defaultOptions()
	ircOpt.Heuristic = regalloc.IRC

	out := &IRCStudyResult{}
	for _, w := range workloads.All() {
		prog, err := regalloc.Compile(w.Source)
		if err != nil {
			return nil, fmt.Errorf("irc study: compile %s: %w", w.Program, err)
		}
		for _, routine := range w.Routines {
			bres, err := prog.Allocate(routine, briggs)
			if err != nil {
				return nil, fmt.Errorf("irc study: %s/%s briggs: %w", w.Program, routine, err)
			}
			ires, err := prog.Allocate(routine, ircOpt)
			if err != nil {
				return nil, fmt.Errorf("irc study: %s/%s irc: %w", w.Program, routine, err)
			}
			row := IRCRow{
				Program:         w.Program,
				Routine:         routine,
				BriggsMoves:     irMoveCount(bres.Func),
				IRCMoves:        irMoveCount(ires.Func),
				BriggsCostMilli: int64(math.Round(bres.TotalSpillCost() * 1000)),
				IRCCostMilli:    int64(math.Round(ires.TotalSpillCost() * 1000)),
			}
			if row.BriggsMoves >= 4 {
				out.HeavyBriggsMoves += row.BriggsMoves
				out.HeavyIRCMoves += row.IRCMoves
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// String renders the study table.
func (r *IRCStudyResult) String() string {
	var b strings.Builder
	b.WriteString("Iterated register coalescing vs Briggs conservative coalescing\n")
	fmt.Fprintf(&b, "%-8s %-8s | %6s %6s %6s | %9s %9s\n",
		"program", "routine", "briggs", "irc", "elim", "b.cost", "irc.cost")
	b.WriteString(strings.Repeat("-", 62) + "\n")
	for _, row := range r.Rows {
		elim := "-"
		if row.BriggsMoves > 0 {
			elim = fmt.Sprintf("%.0f%%", 100*float64(row.BriggsMoves-row.IRCMoves)/float64(row.BriggsMoves))
		}
		fmt.Fprintf(&b, "%-8s %-8s | %6d %6d %6s | %9.3f %9.3f\n",
			row.Program, row.Routine, row.BriggsMoves, row.IRCMoves, elim,
			float64(row.BriggsCostMilli)/1000, float64(row.IRCCostMilli)/1000)
	}
	fmt.Fprintf(&b, "move-heavy units (>= 4 surviving copies): briggs leaves %d, irc leaves %d (%.0f%% eliminated)\n",
		r.HeavyBriggsMoves, r.HeavyIRCMoves, r.EliminatedPct())
	b.WriteString("move columns count register copies left in the unit; cost columns are total estimated spill cost\n")
	return b.String()
}
