package experiments

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"regalloc/internal/color"
	"regalloc/internal/graphgen"
	"regalloc/internal/ig"
	"regalloc/internal/obs"
	"regalloc/internal/pcolor"
)

// ScaleRow is one (topology, algorithm, workers) cell of the scale
// study: generation and coloring wall time on a 10^5..10^7-node
// graph. The JSON tags are bench -bench-json's scale section
// (regalloc-bench/7).
type ScaleRow struct {
	Topology  string `json:"topology"` // "powerlaw" or "mesh"
	Nodes     int    `json:"nodes"`
	Edges     int    `json:"edges"`
	Algo      string `json:"algo"` // "speculative" or "jp"
	Workers   int    `json:"workers"`
	GenNS     int64  `json:"gen_ns"`
	ColorNS   int64  `json:"color_ns"`
	Rounds    int    `json:"rounds"`
	Conflicts int    `json:"conflicts"`
	Colors    int    `json:"colors"` // int-class palette (the scale graphs are single-class)
}

// ScaleStudyResult is the full table.
type ScaleStudyResult struct {
	GoMaxProcs int
	Rows       []ScaleRow
}

// ScaleStudy colors the scale tier: a Barabási–Albert power-law
// graph and a 2D mesh of ~nodes nodes each (the two extreme degree
// profiles large interference problems exhibit), under both parallel
// engines at 1 worker and at GOMAXPROCS. Graphs this size are what
// the CSR adjacency backbone is for; the study is the repo's
// standing evidence that a million-node graph colors in seconds.
// nodes <= 0 defaults to 100,000.
func ScaleStudy(nodes int) (*ScaleStudyResult, error) {
	if nodes <= 0 {
		nodes = 100_000
	}
	reps := 2
	if nodes > 250_000 {
		reps = 1
	}
	side := int(math.Sqrt(float64(nodes)))
	if side < 1 {
		side = 1
	}

	type spec struct {
		topology string
		g        *ig.Graph
		genNS    int64
	}
	var specs []spec
	{
		t0 := time.Now()
		g, _ := graphgen.PowerLaw(nodes, 4, 1)
		specs = append(specs, spec{"powerlaw", g, time.Since(t0).Nanoseconds()})
	}
	{
		t0 := time.Now()
		g, _ := graphgen.Mesh(side, side)
		specs = append(specs, spec{"mesh", g, time.Since(t0).Nanoseconds()})
	}

	out := &ScaleStudyResult{GoMaxProcs: runtime.GOMAXPROCS(0)}
	workerCounts := []int{1}
	if gmp := runtime.GOMAXPROCS(0); gmp > 1 {
		workerCounts = append(workerCounts, gmp)
	}
	for _, s := range specs {
		for _, algo := range []pcolor.Algo{pcolor.Speculative, pcolor.JonesPlassmann} {
			for _, workers := range workerCounts {
				tr := obs.New(observer, fmt.Sprintf("scale:%s:%s", s.topology, algo))
				var best int64
				var st *pcolor.Stats
				var colors []int16
				for r := 0; r < reps; r++ {
					t0 := time.Now()
					colors, st = pcolor.Color(s.g, pcolor.Options{Workers: workers, Seed: 1, Algo: algo, Tracer: tr})
					if ns := time.Since(t0).Nanoseconds(); best == 0 || ns < best {
						best = ns
					}
				}
				if err := color.Verify(s.g, colors, pcolor.KFor(st)); err != nil {
					return nil, fmt.Errorf("scale study: %s %s workers=%d: %w", s.topology, algo, workers, err)
				}
				out.Rows = append(out.Rows, ScaleRow{
					Topology:  s.topology,
					Nodes:     s.g.NumNodes(),
					Edges:     s.g.NumEdges(),
					Algo:      algo.String(),
					Workers:   st.Workers,
					GenNS:     s.genNS,
					ColorNS:   best,
					Rounds:    st.Rounds,
					Conflicts: st.Conflicts,
					Colors:    st.ColorsInt,
				})
			}
		}
	}
	return out, nil
}

// String renders the study table.
func (r *ScaleStudyResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scale tier: CSR build + parallel coloring (GOMAXPROCS=%d)\n", r.GoMaxProcs)
	fmt.Fprintf(&b, "%-9s | %8s %9s | %-11s %2s | %6s %9s %6s | %10s %10s\n",
		"topology", "nodes", "edges", "algo", "w", "rounds", "conflicts", "colors", "gen", "color")
	b.WriteString(strings.Repeat("-", 100) + "\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-9s | %8d %9d | %-11s %2d | %6d %9d %6d | %10s %10s\n",
			row.Topology, row.Nodes, row.Edges, row.Algo, row.Workers,
			row.Rounds, row.Conflicts, row.Colors,
			time.Duration(row.GenNS), time.Duration(row.ColorNS))
	}
	b.WriteString("gen is one-time graph construction; color is best-rep wall clock; jp rounds/colors are worker-independent\n")
	return b.String()
}
