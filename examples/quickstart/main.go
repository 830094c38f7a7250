// Quickstart: compile a small FORTRAN routine, allocate registers
// with Chaitin's heuristic and with the paper's optimistic
// heuristic, and print what each did. Also demonstrates the paper's
// Figure 3 directly on an interference graph.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"regalloc"
	"regalloc/internal/color"
	"regalloc/internal/graphgen"
	"regalloc/internal/ir"
)

const source = `
      SUBROUTINE SAXPYISH(N,A,X,Y)
C     y = y + a*x, with a deliberately register-hungry inner loop
      REAL A,X(*),Y(*)
      REAL T1,T2,T3,T4
      INTEGER I,N
      DO I = 1,N-3,4
         T1 = A*X(I)
         T2 = A*X(I+1)
         T3 = A*X(I+2)
         T4 = A*X(I+3)
         Y(I) = Y(I) + T1
         Y(I+1) = Y(I+1) + T2
         Y(I+2) = Y(I+2) + T3
         Y(I+3) = Y(I+3) + T4
      ENDDO
      RETURN
      END
`

func main() {
	prog, err := regalloc.Compile(source)
	if err != nil {
		log.Fatal(err)
	}

	for _, h := range []regalloc.Heuristic{regalloc.Chaitin, regalloc.Briggs} {
		opt := regalloc.DefaultOptions()
		opt.Heuristic = h
		res, err := prog.Allocate("SAXPYISH", opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s live ranges=%3d  spilled=%d  passes=%d  graph edges=%d\n",
			h.String()+":", res.LiveRanges(), res.TotalSpilled(), len(res.Passes), res.Passes[0].Edges)
	}

	// The paper's Figure 3: a 4-cycle needs two colors, but with
	// k = 2 Chaitin's simplification is immediately stuck (every
	// node has degree 2) and must spill. Deferring the decision to
	// the select phase colors it.
	fmt.Println("\nFigure 3 (4-cycle, k = 2):")
	g, costs := graphgen.Cycle(4)
	k := func(ir.Class) int { return 2 }

	out := color.Run(nil, g, nil, costs, k, color.Chaitin, color.CostOverDegree, nil)
	fmt.Printf("  chaitin: marks %d node(s) for spilling during simplify\n", len(out.Spilled))

	out = color.Run(nil, g, nil, costs, k, color.Briggs, color.CostOverDegree, nil)
	fmt.Printf("  briggs:  spills %d; coloring = %v\n", len(out.Spilled), out.Colors)
}
