package regalloc_test

import (
	"context"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"regalloc"
	"regalloc/internal/asm"
	"regalloc/internal/cfg"
	"regalloc/internal/color"
	"regalloc/internal/experiments"
	"regalloc/internal/graphgen"
	"regalloc/internal/ig"
	"regalloc/internal/ir"
	"regalloc/internal/obs"
	"regalloc/internal/opt"
	"regalloc/internal/pcolor"
	"regalloc/internal/target"
	"regalloc/internal/workloads"
)

// countsGolden is the table TestCountsGolden recomputes.
const countsGolden = "testdata/counts.golden"

// TestCountsGolden recomputes every exact count in
// testdata/counts.golden and fails on any difference, naming each row
// and count that moved. The counts are what the paper grades an
// allocator by (spills, spill cost, spill code, copies, object size,
// cycles) and the work the allocator reports doing (passes and every
// obs counter), so a change that spills more, leaves more copies or
// does more work per pass fails here, however fast the host is.
//
// On a mismatch the test writes the recomputed table next to the
// golden, as counts.golden.got. A change that moves counts on purpose
// copies that file over the golden and says in CHANGES.md why each
// count moved.
func TestCountsGolden(t *testing.T) {
	got := countsTable(t)
	want, err := os.ReadFile(countsGolden)
	if err != nil {
		t.Errorf("reading the golden: %v", err)
	}
	moved := diffCounts(string(want), got)
	if len(moved) == 0 {
		os.Remove(countsGolden + ".got") // a stale one would mislead
		return
	}
	if err := os.WriteFile(countsGolden+".got", []byte(got), 0o644); err != nil {
		t.Error(err)
	}
	t.Errorf("%d rows of %s moved; the recomputed table is in %s.got:\n%s",
		len(moved), countsGolden, countsGolden, strings.Join(moved, "\n"))
}

// countRow is one line of the table: a row name and its counts, in
// order.
type countRow struct {
	name string
	keys []string
	vals []string
}

func (r *countRow) add(key string, v any) {
	r.keys = append(r.keys, key)
	r.vals = append(r.vals, fmt.Sprint(v))
}

func (r *countRow) String() string {
	var b strings.Builder
	b.WriteString(r.name)
	for i, k := range r.keys {
		fmt.Fprintf(&b, " %s=%s", k, r.vals[i])
	}
	return b.String()
}

// parseCounts reads a table back into rows, in order.
func parseCounts(text string) []countRow {
	var rows []countRow
	for _, ln := range strings.Split(text, "\n") {
		fields := strings.Fields(ln)
		if len(fields) == 0 {
			continue
		}
		r := countRow{name: fields[0]}
		for _, kv := range fields[1:] {
			k, v, _ := strings.Cut(kv, "=")
			r.keys = append(r.keys, k)
			r.vals = append(r.vals, v)
		}
		rows = append(rows, r)
	}
	return rows
}

// diffCounts lists every row of got that differs from want, with the
// counts that moved, and every row only one of them has.
func diffCounts(want, got string) []string {
	wantRows := make(map[string]countRow)
	for _, r := range parseCounts(want) {
		wantRows[r.name] = r
	}
	seen := make(map[string]bool)
	var moved []string
	for _, g := range parseCounts(got) {
		seen[g.name] = true
		w, ok := wantRows[g.name]
		if !ok {
			moved = append(moved, "new row "+g.String())
			continue
		}
		wv := make(map[string]string)
		for i, k := range w.keys {
			wv[k] = w.vals[i]
		}
		var diffs []string
		for i, k := range g.keys {
			if v, ok := wv[k]; !ok || v != g.vals[i] {
				if !ok {
					v = "-"
				}
				diffs = append(diffs, fmt.Sprintf("%s %s → %s", k, v, g.vals[i]))
			}
			delete(wv, k)
		}
		for _, k := range w.keys {
			if v, ok := wv[k]; ok {
				diffs = append(diffs, fmt.Sprintf("%s %s → -", k, v))
			}
		}
		if len(diffs) > 0 {
			moved = append(moved, g.name+": "+strings.Join(diffs, ", "))
		}
	}
	for _, w := range parseCounts(want) {
		if !seen[w.name] {
			moved = append(moved, "gone row "+w.String())
		}
	}
	return moved
}

// countsFamily is one allocator configuration the table sweeps.
type countsFamily struct {
	name string
	set  func(*regalloc.Options)
}

var countsFamilies = []countsFamily{
	{"chaitin", func(o *regalloc.Options) { o.Heuristic = regalloc.Chaitin }},
	{"briggs", func(o *regalloc.Options) {}},
	{"briggs-cc", func(o *regalloc.Options) { o.ConservativeCoalesce = true }},
	{"briggs-remat", func(o *regalloc.Options) { o.Rematerialize = true }},
	{"briggs-split", func(o *regalloc.Options) { o.Split = true }},
	{"ssa", func(o *regalloc.Options) { o.Heuristic = regalloc.SSA }},
	{"irc", func(o *regalloc.Options) { o.Heuristic = regalloc.IRC }},
}

// countsBudgets are the register files the table sweeps: the paper's
// (16,8) and a halved one where most units spill.
var countsBudgets = [][2]int{{16, 8}, {8, 4}}

// countsProgram is one suite program: its IR, and for programs with a
// dynamic scenario, the driver and its digest on irinterp.
type countsProgram struct {
	name   string
	prog   *regalloc.Program
	driver experiments.DriverFunc
	ref    uint64
}

// counterSum is an Observer that sums every obs counter by name.
type counterSum map[string]int64

func (c counterSum) Emit(e obs.Event) {
	if e.Kind == obs.KindCounter {
		c[e.Name] += e.Value
	}
}

// countsTable computes the table: per suite unit, its IR size and
// opt.Run counts; per unit, family and budget, the allocation's
// counts; per unit, the (16,8) race; per driver program, the VM cycles
// of each family's code and of the race winners'; and pcolor on the
// two scale graphs.
func countsTable(t *testing.T) string {
	t.Helper()
	drivers := make(map[string]experiments.DriverFunc)
	for _, d := range experiments.Drivers() {
		drivers[d.Workload.Program] = d.Run
	}
	var rows []*countRow
	row := func(name string) *countRow {
		r := &countRow{name: name}
		rows = append(rows, r)
		return r
	}

	var suite []countsProgram
	for _, w := range append(workloads.All(), workloads.Quicksort()) {
		p := countsProgram{name: w.Program, driver: drivers[w.Program]}
		var err error
		if p.prog, err = regalloc.Compile(w.Source); err != nil {
			t.Fatal(err)
		}
		// Compile keeps no opt.Run counts, so rerun the optimizer on
		// an unoptimized copy to read them.
		raw, err := regalloc.CompileNoOpt(w.Source)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range raw.IR.Funcs {
			st := opt.Run(f)
			n := p.prog.Func(f.Name).NumInstrs()
			if f.NumInstrs() != n {
				t.Fatalf("%s/%s: opt.Run on CompileNoOpt's IR left %d instructions, Compile %d", w.Program, f.Name, f.NumInstrs(), n)
			}
			r := row("unit/" + w.Program + "/" + f.Name)
			r.add("instrs", n)
			r.add("cse", st.CSERemoved)
			r.add("hoisted", st.Hoisted)
			r.add("dead", st.DeadGone)
		}
		if p.driver != nil {
			it := p.prog.NewInterp(p.prog.MemWords())
			ref, err := p.driver(experiments.InterpEngine{I: it})
			if err != nil {
				t.Fatalf("%s on irinterp: %v", w.Program, err)
			}
			p.ref = ref
		}
		suite = append(suite, p)
	}

	// vmRow runs p's scenario on code, checking its digest against
	// irinterp, and adds the cycles; code is nil when some unit failed
	// to allocate.
	vmRow := func(p countsProgram, label string, code *asm.Program) {
		if p.driver == nil {
			return
		}
		r := row("vm/" + p.name + "/" + label)
		if code == nil {
			r.add("failed", 1)
			return
		}
		m := regalloc.NewVM(code, p.prog.MemWords())
		digest, err := p.driver(experiments.VMEngine{M: m})
		if err != nil {
			t.Errorf("%s %s on the VM: %v", p.name, label, err)
		} else if digest != p.ref {
			t.Errorf("%s %s on the VM: digest %x, irinterp reference %x", p.name, label, digest, p.ref)
		}
		r.add("cycles", m.Cycles)
	}

	for _, fam := range countsFamilies {
		for _, k := range countsBudgets {
			label := fmt.Sprintf("%s/%d,%d", fam.name, k[0], k[1])
			m := target.RTPC().WithGPR(k[0]).WithFPR(k[1])
			for _, p := range suite {
				code := asm.NewProgram()
				for _, f := range p.prog.IR.Funcs {
					r := row("alloc/" + p.name + "/" + f.Name + "/" + label)
					o := regalloc.DefaultOptions()
					o.KInt, o.KFloat = k[0], k[1]
					fam.set(&o)
					sum := counterSum{}
					o.Observer = sum
					res, err := p.prog.Allocate(f.Name, o)
					var af *asm.Func
					if err == nil {
						af, err = asm.Lower(res.Func, res.Colors, m)
					}
					if err != nil {
						r.add("failed", 1)
						code = nil
						continue
					}
					allocCounts(r, res, af, sum)
					if code != nil {
						code.Add(af)
					}
				}
				vmRow(p, label, code)
			}
		}
	}

	// The race at the paper's budget, and its winners' code.
	cands := regalloc.DefaultPortfolio(regalloc.DefaultOptions())
	m := target.RTPC()
	for _, p := range suite {
		code := asm.NewProgram()
		for _, f := range p.prog.IR.Funcs {
			pr, err := p.prog.AllocatePortfolio(context.Background(), f.Name, cands, regalloc.PortfolioConfig{Mode: regalloc.RaceToBest})
			if err != nil {
				t.Fatalf("race %s/%s: %v", p.name, f.Name, err)
			}
			unit := "race/" + p.name + "/" + f.Name
			row(unit).add("winner", pr.Outcomes[pr.Winner].Name)
			for _, oc := range pr.Outcomes {
				r := row(unit + "/" + oc.Name)
				r.add("status", oc.Status)
				r.add("spills", oc.Spills)
				r.add("cost_milli", oc.SpillCostMilli)
			}
			af, err := asm.Lower(pr.Res.Func, pr.Res.Colors, m)
			if err != nil {
				t.Fatalf("race %s/%s: %v", p.name, f.Name, err)
			}
			code.Add(af)
		}
		vmRow(p, "race/16,8", code)
	}

	// The scale tier: pcolor on 10^5-node graphs, where its counts
	// are fixed by the seed and the worker count.
	const nodes = 100_000
	side := int(math.Sqrt(nodes))
	powerlaw, _ := graphgen.PowerLaw(nodes, 4, 1)
	mesh, _ := graphgen.Mesh(side, side)
	for _, s := range []struct {
		name string
		g    *ig.Graph
	}{{"powerlaw", powerlaw}, {"mesh", mesh}} {
		for _, algo := range []pcolor.Algo{pcolor.Speculative, pcolor.JonesPlassmann} {
			for _, workers := range []int{1, 4} {
				colors, st := pcolor.Color(s.g, pcolor.Options{Workers: workers, Seed: 1, Algo: algo})
				if err := color.Verify(s.g, colors, pcolor.KFor(st)); err != nil {
					t.Fatalf("scale %s %s workers=%d: %v", s.name, algo, workers, err)
				}
				r := row(fmt.Sprintf("scale/%s/%s/w%d", s.name, algo, workers))
				r.add("edges", s.g.NumEdges())
				r.add("rounds", st.Rounds)
				r.add("conflicts", st.Conflicts)
				r.add("colors", st.ColorsInt)
			}
		}
	}

	var b strings.Builder
	for _, r := range rows {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// allocCounts adds one allocation's counts to r: what its code costs,
// the spill code and copies it leaves weighted 10^depth, its passes,
// and every obs counter it emitted, summed by name.
func allocCounts(r *countRow, res *regalloc.Result, af *asm.Func, counters counterSum) {
	loads, stores := 0, 0
	for _, p := range res.Passes {
		loads += p.LoadsInserted
		stores += p.StoresInserted
	}
	irCopies, copies := 0, 0
	for _, b := range res.Func.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].IsMove() {
				irCopies++
			}
		}
	}
	for i := range af.Code {
		if af.Code[i].Op == ir.OpMove {
			copies++
		}
	}
	r.add("cost_milli", obs.SpillCostMilli(res.TotalSpillCost()))
	r.add("spilled", res.TotalSpilled())
	r.add("loads", loads)
	r.add("stores", stores)
	r.add("ir_copies", irCopies)
	r.add("copies", copies)
	r.add("object_bytes", af.ObjectSize())

	// The loop depths come from a fresh analysis of a clone, so the
	// weights do not depend on what the allocator stamped.
	f := res.Func.Clone()
	cfg.Analyze(f)
	var wLoads, wStores, wCopies int64
	for _, b := range f.Blocks {
		w := int64(1)
		for d := 0; d < b.Depth; d++ {
			w *= 10
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch {
			case in.Op == ir.OpSpillLoad:
				wLoads += w
			case in.Op == ir.OpSpillStore:
				wStores += w
			case in.IsMove() && res.Colors[in.Dst] != res.Colors[in.A]:
				wCopies += w
			}
		}
	}
	r.add("w_loads", wLoads)
	r.add("w_stores", wStores)
	r.add("w_copies", wCopies)

	r.add("passes", len(res.Passes))
	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r.add(name, counters[name])
	}
}
