package core

import (
	"strconv"
	"time"

	"repro/internal/metrics"
	"repro/internal/testbed"
)

// EmitEvents: the shared telemetry path of the Run* harnesses. Every
// experiment derives a per-cell recorder (tagged with the experiment name,
// stack and cell axes) and hands it to the testbed or cluster it builds;
// the instrumented layers then stream counter samples, and the harness
// closes each cell with a result point. docs/METRICS.md documents the
// resulting schema; cmd/metrics summarizes the streams.

// cellRecorder derives the recorder one experiment cell emits through:
// events carry {experiment, stack} plus the cell's extra axis tags.
func cellRecorder(rec *metrics.Recorder, experiment string, k Stack, extra metrics.Tags) *metrics.Recorder {
	return rec.With(metrics.Tags{"experiment": experiment, "stack": k.Tag()}).With(extra)
}

// itoa tags an integer axis value.
func itoa(n int) string { return strconv.Itoa(n) }

// ftoa tags a float axis value ("0.01", not "1e-02").
func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// beginCell opens one instrumented measurement window on a cluster (a
// Testbed passes its embedded Cluster): setup-phase deltas are flushed
// into their own samples, then the begin mark separates them from
// measured traffic. Every event is stamped at the cluster horizon.
func beginCell(cl *testbed.Cluster, extra metrics.Tags) {
	cl.EmitSample()
	cl.Metrics().Mark(cl.Horizon(), mergePhase("begin", extra))
}

// endCell closes the window: measured deltas are sampled, the cell's
// derived results (if any) land as a point event, and the end mark
// delimits the cell.
func endCell(cl *testbed.Cluster, extra metrics.Tags, results map[string]float64) {
	cl.EmitSample()
	if len(results) > 0 {
		cl.Metrics().Point(cl.Horizon(), metrics.SubsysRun, extra, results)
	}
	cl.Metrics().Mark(cl.Horizon(), mergePhase("end", extra))
}

// mergePhase overlays a phase tag on the cell's extra tags.
func mergePhase(phase string, extra metrics.Tags) metrics.Tags {
	t := metrics.Tags{"phase": phase}
	for k, v := range extra {
		t[k] = v
	}
	return t
}

// durTag tags a duration axis value ("40ms").
func durTag(d time.Duration) string { return d.String() }
