package alloc_test

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"regalloc/internal/alloc"
	"regalloc/internal/color"
	"regalloc/internal/obs"
)

// livenessRuns sums the analysis.liveness_runs counters of pass 0.
func livenessRuns(c *capture) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := int64(0)
	for _, e := range c.events {
		if e.Kind == obs.KindCounter && e.Pass == 0 && e.Name == "analysis.liveness_runs" {
			n += e.Value
		}
	}
	return n
}

// TestStartsBuildAgainAfterFailure: a member whose shared Build fails
// (its context is cancelled inside the coalescer) leaves the group
// unbuilt. The next member builds, the one after forks that Build,
// and both allocate exactly as standalone runs do.
func TestStartsBuildAgainAfterFailure(t *testing.T) {
	f := compile(t, pressureSrc).Func("HOT")
	briggs := alloc.DefaultOptions()
	briggs.KInt, briggs.KFloat = 16, 16
	chaitin := briggs
	chaitin.Heuristic = color.Chaitin
	s := alloc.NewStarts(f, []alloc.Options{briggs, chaitin, briggs})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	failing := briggs
	failing.Observer = &cancelOnMerge{cancel: cancel}
	if _, err := s.RunContext(ctx, failing); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled inside the shared Build: err = %v, want context.Canceled", err)
	}
	for i, opt := range []alloc.Options{chaitin, briggs} {
		want, err := alloc.Run(f, opt)
		if err != nil {
			t.Fatal(err)
		}
		var c capture
		opt.Observer = &c
		got, err := s.RunContext(context.Background(), opt)
		if err != nil {
			t.Fatalf("%s after the failed Build: %v", opt.Heuristic, err)
		}
		if !reflect.DeepEqual(got.Func, want.Func) || !reflect.DeepEqual(got.Colors, want.Colors) {
			t.Errorf("%s: allocation differs from a standalone run", opt.Heuristic)
		}
		if runs, wantRuns := livenessRuns(&c), int64(1-i); runs != wantRuns {
			t.Errorf("%s: pass 0 solved liveness %d times, want %d", opt.Heuristic, runs, wantRuns)
		}
	}
	if n, err := s.Check(); n != 1 || err != nil {
		t.Fatalf("Check = %d, %v; want the one shared Build, unchanged", n, err)
	}
}

// blockInCoalesce is an Observer that, at its run's first coalescing
// span, reports that the run is inside its Build and waits for
// release.
type blockInCoalesce struct {
	building, release chan struct{}
	seen              bool
}

func (b *blockInCoalesce) Emit(e obs.Event) {
	if e.Kind == obs.KindSpanBegin && e.Phase == obs.PhaseCoalesce && !b.seen {
		b.seen = true
		close(b.building)
		<-b.release
	}
}

// TestStartsWaiterHonorsContext: a member that reaches its group's
// Build while another member runs it waits for that Build, but only
// as long as its own context allows; the builder then finishes
// unaffected.
func TestStartsWaiterHonorsContext(t *testing.T) {
	f := compile(t, pressureSrc).Func("HOT")
	briggs := alloc.DefaultOptions()
	chaitin := briggs
	chaitin.Heuristic = color.Chaitin
	s := alloc.NewStarts(f, []alloc.Options{briggs, chaitin})

	block := &blockInCoalesce{building: make(chan struct{}), release: make(chan struct{})}
	builder := briggs
	builder.Observer = block
	done := make(chan error, 1)
	go func() {
		_, err := s.RunContext(context.Background(), builder)
		done <- err
	}()
	<-block.building
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := s.RunContext(ctx, chaitin)
	close(block.release)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("waiting on the shared Build past its deadline: err = %v, want context.DeadlineExceeded", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("builder: %v", err)
	}
}
