package portfolio

import "regalloc/internal/alloc"

// ObserveStarts hands check each race's shared-Build memo once the
// race has joined its candidates, until restore is called. Races must
// come from one goroutine at a time.
func ObserveStarts(check func(*alloc.Starts)) (restore func()) {
	startsObserver = check
	return func() { startsObserver = nil }
}
