// Package obsfile opens the observers the command-line tools share:
// -trace (the event stream as JSON lines), -trace-perfetto (the same
// run as Chrome trace-event JSON) and -metrics (aggregated counters
// and per-phase duration histograms).
package obsfile

import (
	"fmt"
	"os"

	"regalloc/internal/fsutil"
	"regalloc/internal/obs"
	"regalloc/internal/obs/traceevent"
)

// Open builds the sinks the three flags ask for. tracePath and
// perfettoPath name output files, "-" for stdout and "" for none. It
// returns every enabled sink as one (nil when none is), the metrics
// sink (nil unless metrics is set), and a close function to run and
// check at exit, not in a defer that drops its error: a write error
// (a full disk, a quota) surfaces mid-stream, at fsync or at close,
// and any of them must fail the run instead of leaving a silently
// truncated trace. The trace-event file is buffered in its sink and
// written by close, through the same fsync-or-error path.
func Open(tracePath, perfettoPath string, metrics bool) (sink obs.Sink, ms *obs.MetricsSink, closeAll func() error, err error) {
	var js *obs.JSONSink
	var traceFile *os.File
	if tracePath != "" {
		w := os.Stdout
		if tracePath != "-" {
			if traceFile, err = os.Create(tracePath); err != nil {
				return nil, nil, nil, err
			}
			w = traceFile
		}
		js = obs.NewJSONSink(w)
	}
	var pf *traceevent.Sink
	if perfettoPath != "" {
		pf = traceevent.New()
	}
	if metrics {
		ms = obs.NewMetricsSink()
	}
	closeAll = func() error {
		if js != nil {
			err := js.Err()
			if err == nil && traceFile != nil {
				err = fsutil.SyncClose(traceFile)
			}
			if err != nil {
				return fmt.Errorf("closing trace: %w", err)
			}
		}
		if pf != nil {
			if err := writePerfetto(pf, perfettoPath); err != nil {
				return fmt.Errorf("writing perfetto trace: %w", err)
			}
		}
		return nil
	}
	return obs.Multi(js, ms, pf), ms, closeAll, nil
}

func writePerfetto(pf *traceevent.Sink, path string) error {
	if path == "-" {
		return pf.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pf.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return fsutil.SyncClose(f)
}
