package workloads

import (
	"fmt"
	"strings"
)

// Loops returns a unit of n sequential DO loops over the same index,
// each `A(I) = A(I) + B(k) * c` with its own k and c. It is not part
// of the suite: every loop has invariant work to hoist, so it scales
// the optimizer's loop count while the rest of the pipeline stays
// linear — the compile-time guard for loop-invariant code motion.
func Loops(n int) Workload {
	var s strings.Builder
	s.WriteString("      SUBROUTINE LOOPS(A,B,N)\n      REAL A(*),B(*)\n      INTEGER I,N\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&s, "      DO I = 1,N\n         A(I) = A(I) + B(%d) * %d.5\n      ENDDO\n", i%50+1, i%7+1)
	}
	s.WriteString("      END\n")
	return Workload{Program: "LOOPS", Source: s.String(), Routines: []string{"LOOPS"}}
}
