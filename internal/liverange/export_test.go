package liverange

import (
	"regalloc/internal/dataflow"
	"regalloc/internal/ir"
)

// RenumberRef is the reaching-definitions reference renumbering.
var RenumberRef = renumberRef

// CheckRenumbers hands check a copy of the function before, the
// function after, and the returned liveness of every renumbering run
// until restore is called. Renumberings must come from one goroutine
// at a time.
func CheckRenumbers(check func(before, after *ir.Func, lv *dataflow.Liveness)) (restore func()) {
	renumberObserver = check
	return func() { renumberObserver = nil }
}
