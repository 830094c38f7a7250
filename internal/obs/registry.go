package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// This file is the aggregation half of the observability layer: where
// sinks.go folds a *live event stream* into counters, the Registry
// accumulates *completed runs* — one RunSummary per Allocate/Assemble
// call — across the lifetime of a process, so a long-running service
// (cmd/allocd) can answer "what has this allocator done so far"
// without replaying traces. internal/obs/promtext renders a Snapshot
// in Prometheus text exposition format.

// LatencyBuckets is the fixed upper-bound ladder (a 1-2-5 series from
// 1µs to 10s) shared by every LatencyHistogram. Fixed buckets make
// histograms mergeable across runs, processes, and scrapes — the
// property Prometheus histograms are built on. A histogram keeps no
// samples, so it yields no exact percentile; the reports that print
// percentiles (allocload, perfbench) compute them from raw samples.
var LatencyBuckets = [NumLatencyBuckets]time.Duration{
	1 * time.Microsecond, 2 * time.Microsecond, 5 * time.Microsecond,
	10 * time.Microsecond, 20 * time.Microsecond, 50 * time.Microsecond,
	100 * time.Microsecond, 200 * time.Microsecond, 500 * time.Microsecond,
	1 * time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
	10 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 200 * time.Millisecond, 500 * time.Millisecond,
	1 * time.Second, 2 * time.Second, 5 * time.Second,
	10 * time.Second,
}

// NumLatencyBuckets is len(LatencyBuckets); LatencyHistogram carries
// one extra overflow bucket beyond it.
const NumLatencyBuckets = 22

// LatencyHistogram counts durations into the fixed LatencyBuckets
// ladder. The zero value is ready to use. It is a plain value type;
// the Registry provides the locking.
type LatencyHistogram struct {
	Count   int64
	SumNS   int64
	MaxNS   int64
	Buckets [NumLatencyBuckets + 1]int64 // Buckets[i]: d <= LatencyBuckets[i]; last: larger
}

// Observe counts one duration and returns the index of the bucket it
// landed in.
func (h *LatencyHistogram) Observe(d time.Duration) int {
	ns := d.Nanoseconds()
	h.Count++
	h.SumNS += ns
	if ns > h.MaxNS {
		h.MaxNS = ns
	}
	idx := NumLatencyBuckets
	for i, ub := range LatencyBuckets {
		if d <= ub {
			idx = i
			break
		}
	}
	h.Buckets[idx]++
	return idx
}

// Merge adds o's observations into h (bucket-wise; this is why the
// ladder is fixed).
func (h *LatencyHistogram) Merge(o LatencyHistogram) {
	h.Count += o.Count
	h.SumNS += o.SumNS
	if o.MaxNS > h.MaxNS {
		h.MaxNS = o.MaxNS
	}
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
}

// Mean returns the average observed duration.
func (h LatencyHistogram) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return time.Duration(h.SumNS / h.Count)
}

// RunSummary condenses one completed run — an Allocate/Assemble unit
// or a standalone (p)coloring — into the fields the Registry
// accumulates. Callers fill only what applies: a pcolor run has no
// passes, an allocator run has no PColorRounds. SpillCost is carried
// in fixed-point milli units (matching the spill.cost_milli trace
// counter) so concurrent accumulation stays exact: integer addition
// commutes, float addition does not.
type RunSummary struct {
	Unit  string // routine or graph name ("" aggregates namelessly)
	Error bool   // the run failed; only Unit is meaningful

	Passes         int   // trips around the Figure 4 cycle
	LiveRanges     int   // first-pass graph nodes
	Edges          int   // first-pass graph edges
	Spills         int   // live ranges spilled, all passes
	SpillCostMilli int64 // 1000 × summed estimated spill cost, rounded
	CoalescedMoves int   // copies removed, all passes

	PaletteInt   int // distinct int colors actually used
	PaletteFloat int // distinct float colors actually used

	PColorRounds    int // speculative rounds (pcolor runs)
	PColorConflicts int // boundary conflicts detected (pcolor runs)

	// Portfolio-race fields, filled only for runs that went through
	// the racing engine (internal/portfolio); PortfolioWinner == ""
	// marks a plain run. Candidate counts follow the engine's
	// statuses: started = finished + errored, cancelled candidates
	// never ran.
	PortfolioCandidates  int    // candidates in the race
	PortfolioStarted     int    // candidates that began running
	PortfolioFinished    int    // candidates that finished and verified
	PortfolioCancelled   int    // candidates cut off before starting
	PortfolioWinner      string // winning strategy name
	PortfolioMarginMilli int64  // cheapest loser minus winner, milli spill cost
	// PortfolioEntrants lists every candidate strategy in the race,
	// winners and losers alike. Record seeds a zero wins counter for
	// each, so the wins_total label set is the candidate list, not the
	// winner history: a strategy that never wins (say, a newly added
	// family) still exports wins_total{strategy="..."} 0 instead of
	// silently missing — absent series skew any win-rate computed from
	// the scrape.
	PortfolioEntrants []string

	PhaseNS [NumPhases]int64 // summed wall time per phase
	TotalNS int64            // summed wall time, whole run
}

// SpillCostMilli converts a float spill cost to the fixed-point
// representation RunSummary carries.
func SpillCostMilli(cost float64) int64 { return int64(math.Round(cost * 1000)) }

// Registry accumulates RunSummary records. It is safe for concurrent
// use from any number of goroutines; totals reconcile exactly with
// the per-run records regardless of interleaving (every accumulated
// quantity is an integer). The zero value is NOT ready; use
// NewRegistry.
type Registry struct {
	mu        sync.Mutex
	runs      int64
	errors    int64
	passes    int64
	spills    int64
	costMilli int64
	moves     int64
	pcRounds  int64
	pcConfl   int64

	pfRaces      int64
	pfCandidates int64
	pfStarted    int64
	pfFinished   int64
	pfCancelled  int64
	pfMargin     int64

	palIntMax   int
	palFloatMax int

	unitRuns map[string]int64
	pfWins   map[string]int64

	phase [NumPhases]LatencyHistogram
	total LatencyHistogram
}

// MaxUnitKeys bounds the distinct per-unit keys a Registry tracks.
// Unit names reach allocd from untrusted clients (?unit= and routine
// names in POSTed sources); without a cap each new name would add a
// map entry and a /metrics series for the life of the process. Runs
// beyond the cap fold into OverflowUnit, so regalloc_runs_total still
// reconciles with the sum over regalloc_unit_runs_total.
const MaxUnitKeys = 1024

// OverflowUnit is the bucket absorbing runs whose unit name arrives
// after MaxUnitKeys distinct names are already tracked.
const OverflowUnit = "(other)"

// NewRegistry returns an empty Registry.
func NewRegistry() *Registry {
	return &Registry{unitRuns: make(map[string]int64), pfWins: make(map[string]int64)}
}

// Record folds one run into the aggregates. Safe for concurrent use.
func (r *Registry) Record(s RunSummary) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.runs++
	unit := s.Unit
	if _, ok := r.unitRuns[unit]; !ok && len(r.unitRuns) >= MaxUnitKeys {
		unit = OverflowUnit
	}
	r.unitRuns[unit]++
	if s.Error {
		r.errors++
		return
	}
	r.passes += int64(s.Passes)
	r.spills += int64(s.Spills)
	r.costMilli += s.SpillCostMilli
	r.moves += int64(s.CoalescedMoves)
	r.pcRounds += int64(s.PColorRounds)
	r.pcConfl += int64(s.PColorConflicts)
	if s.PortfolioWinner != "" {
		r.pfRaces++
		r.pfCandidates += int64(s.PortfolioCandidates)
		r.pfStarted += int64(s.PortfolioStarted)
		r.pfFinished += int64(s.PortfolioFinished)
		r.pfCancelled += int64(s.PortfolioCancelled)
		r.pfMargin += s.PortfolioMarginMilli
		for _, name := range s.PortfolioEntrants {
			if _, ok := r.pfWins[name]; !ok && len(r.pfWins) < MaxUnitKeys {
				r.pfWins[name] = 0
			}
		}
		win := s.PortfolioWinner
		if _, ok := r.pfWins[win]; !ok && len(r.pfWins) >= MaxUnitKeys {
			win = OverflowUnit
		}
		r.pfWins[win]++
	}
	if s.PaletteInt > r.palIntMax {
		r.palIntMax = s.PaletteInt
	}
	if s.PaletteFloat > r.palFloatMax {
		r.palFloatMax = s.PaletteFloat
	}
	for p := 0; p < NumPhases; p++ {
		if s.PhaseNS[p] > 0 {
			r.phase[p].Observe(time.Duration(s.PhaseNS[p]))
		}
	}
	if s.TotalNS > 0 {
		r.total.Observe(time.Duration(s.TotalNS))
	}
}

// RegistrySnapshot is a consistent point-in-time copy of a Registry,
// the unit exporters consume.
type RegistrySnapshot struct {
	Runs           int64
	Errors         int64
	Passes         int64
	Spills         int64
	SpillCostMilli int64
	CoalescedMoves int64

	PColorRounds    int64
	PColorConflicts int64

	PortfolioRaces       int64
	PortfolioCandidates  int64
	PortfolioStarted     int64
	PortfolioFinished    int64
	PortfolioCancelled   int64
	PortfolioMarginMilli int64

	PaletteIntMax   int
	PaletteFloatMax int

	UnitRuns map[string]int64
	// PortfolioWins counts races won per strategy name.
	PortfolioWins map[string]int64

	Phase [NumPhases]LatencyHistogram // indexed by Phase; zero Count when unobserved
	Total LatencyHistogram
}

// Snapshot returns a consistent copy of the aggregates.
func (r *Registry) Snapshot() RegistrySnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := RegistrySnapshot{
		Runs:            r.runs,
		Errors:          r.errors,
		Passes:          r.passes,
		Spills:          r.spills,
		SpillCostMilli:  r.costMilli,
		CoalescedMoves:  r.moves,
		PColorRounds:    r.pcRounds,
		PColorConflicts: r.pcConfl,

		PortfolioRaces:       r.pfRaces,
		PortfolioCandidates:  r.pfCandidates,
		PortfolioStarted:     r.pfStarted,
		PortfolioFinished:    r.pfFinished,
		PortfolioCancelled:   r.pfCancelled,
		PortfolioMarginMilli: r.pfMargin,

		PaletteIntMax:   r.palIntMax,
		PaletteFloatMax: r.palFloatMax,
		UnitRuns:        make(map[string]int64, len(r.unitRuns)),
		PortfolioWins:   make(map[string]int64, len(r.pfWins)),
		Phase:           r.phase,
		Total:           r.total,
	}
	for k, v := range r.unitRuns {
		snap.UnitRuns[k] = v
	}
	for k, v := range r.pfWins {
		snap.PortfolioWins[k] = v
	}
	return snap
}

// SpillCost returns the accumulated spill cost in float form.
func (s RegistrySnapshot) SpillCost() float64 { return float64(s.SpillCostMilli) / 1000 }

// String renders the snapshot as a deterministic summary table: map
// keys are sorted, so identical snapshots always print identically
// (the same contract Metrics.String keeps for counter dumps).
func (s RegistrySnapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "runs: %d (%d failed), passes: %d\n", s.Runs, s.Errors, s.Passes)
	fmt.Fprintf(&b, "spills: %d (summed cost %.3f), coalesced moves: %d\n", s.Spills, s.SpillCost(), s.CoalescedMoves)
	if s.PColorRounds > 0 || s.PColorConflicts > 0 {
		fmt.Fprintf(&b, "pcolor: %d round(s), %d conflict(s)\n", s.PColorRounds, s.PColorConflicts)
	}
	if s.PortfolioRaces > 0 {
		fmt.Fprintf(&b, "portfolio: %d race(s), %d candidate(s) (%d finished, %d cancelled), summed win margin %.3f\n",
			s.PortfolioRaces, s.PortfolioCandidates, s.PortfolioFinished, s.PortfolioCancelled,
			float64(s.PortfolioMarginMilli)/1000)
		wins := make([]string, 0, len(s.PortfolioWins))
		for w := range s.PortfolioWins {
			wins = append(wins, w)
		}
		sort.Strings(wins)
		for _, w := range wins {
			fmt.Fprintf(&b, "  won by %-20s %6d race(s)\n", w, s.PortfolioWins[w])
		}
	}
	fmt.Fprintf(&b, "palette max: %d int, %d float\n", s.PaletteIntMax, s.PaletteFloatMax)
	for p := 0; p < NumPhases; p++ {
		h := s.Phase[p]
		if h.Count == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-9s spans %5d  mean %10s  max %10s\n",
			Phase(p).String(), h.Count, h.Mean(), time.Duration(h.MaxNS))
	}
	if s.Total.Count > 0 {
		fmt.Fprintf(&b, "  %-9s runs  %5d  mean %10s  max %10s\n",
			"total", s.Total.Count, s.Total.Mean(), time.Duration(s.Total.MaxNS))
	}
	units := make([]string, 0, len(s.UnitRuns))
	for u := range s.UnitRuns {
		units = append(units, u)
	}
	sort.Strings(units)
	for _, u := range units {
		name := u
		if name == "" {
			name = "(unnamed)"
		}
		fmt.Fprintf(&b, "  unit %-20s %6d run(s)\n", name, s.UnitRuns[u])
	}
	return b.String()
}
