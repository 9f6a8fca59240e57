package core

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/replay"
	"repro/internal/testbed"
	"repro/internal/trace"
	"repro/internal/tracing"
)

// Replay experiment: the Section 7 workloads driven through the Section
// 5/6 performance machinery. The synthesized EECS-like and Campus-like
// traces (or an arbitrary JSONL op log) replay open-loop through a
// testbed.Cluster on every stack, under both the fluid wire model and
// virtual-time TCP, and the sweep reports per-op latency percentiles and
// aggregate replayed-op throughput per cell.

// ReplayProfiles lists the built-in trace profiles the sweep accepts.
var ReplayProfiles = []string{"eecs", "campus"}

// ReplayTransports are the wire models swept by default.
var ReplayTransports = []testbed.Transport{testbed.TransportFluid, testbed.TransportTCP}

// ReplayConfig parameterizes the replay sweep.
type ReplayConfig struct {
	// Profiles selects built-in traces ("eecs", "campus"; default both).
	// Ignored when Records is set.
	Profiles []string
	// Records replays an explicit op log (e.g. trace.ReadJSONL output)
	// instead of the built-in profiles; RecordsName labels its block.
	Records     []trace.Record
	RecordsName string
	// Stacks restricts the sweep (default all four).
	Stacks []Stack
	// Transports restricts the wire models (default fluid and TCP; UDP is
	// accepted for NFS stacks and skipped for iSCSI, which requires TCP).
	Transports []testbed.Transport
	// Clients is the cluster size; traced client ids fold onto it
	// (default 4).
	Clients int
	// MaxOps truncates each trace (default 2000; negative replays
	// everything — a full profile is ~1-2M ops, so unbounded replay is
	// an explicit choice, never a zero-value accident).
	MaxOps int
	// DirMod folds the trace's directory namespace (default 64).
	DirMod int
	// Conns is the iSCSI MC/S connection count under TCP (default 1).
	Conns int
	// WindowBytes caps each TCP connection's window (default 64 KB).
	WindowBytes int
	// DeviceBlocks sizes each client volume in 4 KB blocks (default
	// 16384; the shared NFS export is scaled by client count).
	DeviceBlocks int64
	// Seed for the cluster.
	Seed int64
	// Metrics, when non-nil, receives per-cell telemetry tagged with the
	// sweep axes (see docs/METRICS.md).
	Metrics *metrics.Recorder
	// Tracer, when non-nil, records per-op span trees for every cell
	// (see docs/TRACING.md).
	Tracer *tracing.Tracer
}

func (c *ReplayConfig) fill() {
	if len(c.Profiles) == 0 {
		c.Profiles = ReplayProfiles
	}
	if len(c.Stacks) == 0 {
		c.Stacks = testbed.AllKinds
	}
	if len(c.Transports) == 0 {
		c.Transports = ReplayTransports
	}
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.MaxOps == 0 {
		c.MaxOps = 2000
	}
	if c.DirMod == 0 {
		c.DirMod = 64
	}
	if c.Conns <= 0 {
		c.Conns = 1
	}
	if c.DeviceBlocks == 0 {
		c.DeviceBlocks = 16384
	}
}

// replayTrace resolves a profile name to its synthesized trace.
func replayTrace(name string) ([]trace.Record, error) {
	switch strings.ToLower(name) {
	case "eecs":
		return trace.Synthesize(trace.EECS()), nil
	case "campus":
		return trace.Synthesize(trace.Campus()), nil
	default:
		return nil, fmt.Errorf("unknown replay profile %q (have %s)",
			name, strings.Join(ReplayProfiles, ", "))
	}
}

// ReplayCell is one (trace, stack, transport) measurement.
type ReplayCell struct {
	Profile   string
	Stack     Stack
	Transport testbed.Transport
	Conns     int
	Clients   int

	// Ops replayed; Elapsed spans the replay window.
	Ops     int
	Elapsed time.Duration
	// Per-op latency percentiles (nearest-rank) and mean.
	P50, P90, P99, Mean time.Duration
	// OpsPerSec is aggregate replayed-op throughput.
	OpsPerSec float64
	// SlowestClientMean is the worst per-client mean latency (the
	// straggler view of the same window).
	SlowestClientMean time.Duration
}

// Label names the cell's variant the way the tables print it.
func (c ReplayCell) Label() string {
	if c.Stack == ISCSI && c.Conns > 1 {
		return fmt.Sprintf("%s/%s x%d", c.Stack, c.Transport, c.Conns)
	}
	return fmt.Sprintf("%s/%s", c.Stack, c.Transport)
}

// RunReplay sweeps every (trace, stack, transport) combination. Cells are
// emitted in deterministic order; identical seeds give identical cells.
func RunReplay(cfg ReplayConfig) ([]ReplayCell, error) {
	cfg.fill()
	type block struct {
		name string
		recs []trace.Record
	}
	var blocks []block
	if cfg.Records != nil {
		name := cfg.RecordsName
		if name == "" {
			name = "oplog"
		}
		blocks = append(blocks, block{name, cfg.Records})
	} else {
		for _, p := range cfg.Profiles {
			recs, err := replayTrace(p)
			if err != nil {
				return nil, err
			}
			blocks = append(blocks, block{p, recs})
		}
	}
	var cells []ReplayCell
	for _, b := range blocks {
		for _, stack := range cfg.Stacks {
			for _, tr := range cfg.Transports {
				if stack == ISCSI && tr == testbed.TransportUDP {
					continue // no UDP transport exists for iSCSI
				}
				cell, err := runReplayCell(cfg, b.name, b.recs, stack, tr)
				if err != nil {
					return nil, fmt.Errorf("replay %s/%v/%v: %w", b.name, stack, tr, err)
				}
				cells = append(cells, cell)
			}
		}
	}
	return cells, nil
}

// runReplayCell builds one cluster and replays one trace through it.
func runReplayCell(cfg ReplayConfig, name string, recs []trace.Record,
	stack Stack, tr testbed.Transport) (ReplayCell, error) {
	dev := cfg.DeviceBlocks
	if stack != ISCSI {
		dev *= int64(cfg.Clients) // one shared export
	}
	conns := 1
	if stack == ISCSI && tr == testbed.TransportTCP {
		conns = cfg.Conns
	}
	cl, err := testbed.NewCluster(testbed.Config{
		Kind:         stack,
		Clients:      cfg.Clients,
		DeviceBlocks: dev,
		Seed:         cfg.Seed,
		Transport:    tr,
		Conns:        conns,
		WindowBytes:  cfg.WindowBytes,
		Metrics: cellRecorder(cfg.Metrics, "replay", stack,
			metrics.Tags{"profile": name, "conns": itoa(conns), "clients": itoa(cfg.Clients)}),
		Tracer: cfg.Tracer,
	})
	if err != nil {
		return ReplayCell{}, err
	}
	maxOps := cfg.MaxOps
	if maxOps < 0 {
		maxOps = 0 // replay.Options spells "everything" as 0
	}
	beginCell(cl, nil)
	res, err := replay.Run(cl, recs, replay.Options{DirMod: cfg.DirMod, MaxOps: maxOps})
	if err != nil {
		return ReplayCell{}, err
	}
	if len(res.Ops) > 0 {
		lats := make([]time.Duration, len(res.Ops))
		for i, op := range res.Ops {
			lats[i] = op.Latency()
		}
		cl.Metrics().Emit(cl.Horizon(), metrics.SubsysHist, metrics.KindSample,
			nil, metrics.LatencyHistogram(lats), nil)
	}
	endCell(cl, nil, map[string]float64{
		"ops":         float64(len(res.Ops)),
		"elapsed_ns":  float64(res.Elapsed),
		"p50_ns":      float64(res.P50),
		"p90_ns":      float64(res.P90),
		"p99_ns":      float64(res.P99),
		"mean_ns":     float64(res.Mean),
		"ops_per_sec": res.OpsPerSec,
	})
	cell := ReplayCell{
		Profile:   name,
		Stack:     stack,
		Transport: tr,
		Conns:     conns,
		Clients:   cfg.Clients,
		Ops:       len(res.Ops),
		Elapsed:   res.Elapsed,
		P50:       res.P50,
		P90:       res.P90,
		P99:       res.P99,
		Mean:      res.Mean,
		OpsPerSec: res.OpsPerSec,
	}
	for _, c := range res.PerClient {
		if c.Mean > cell.SlowestClientMean {
			cell.SlowestClientMean = c.Mean
		}
	}
	return cell, nil
}

// RenderReplay prints the sweep grouped by trace: one row per (stack,
// transport) variant with latency percentiles and throughput.
func RenderReplay(w io.Writer, cells []ReplayCell) {
	var profiles []string
	seen := map[string]bool{}
	for _, c := range cells {
		if !seen[c.Profile] {
			seen[c.Profile] = true
			profiles = append(profiles, c.Profile)
		}
	}
	for _, p := range profiles {
		var clients, ops int
		for _, c := range cells {
			if c.Profile == p {
				clients, ops = c.Clients, c.Ops
				break
			}
		}
		fmt.Fprintf(w, "Trace replay: %s (open-loop, %d clients, %d ops)\n", p, clients, ops)
		fmt.Fprintf(w, "%-18s %9s %9s %9s %9s %9s %10s\n",
			"variant", "p50", "p90", "p99", "mean", "slowest", "ops/s")
		for _, c := range cells {
			if c.Profile != p {
				continue
			}
			fmt.Fprintf(w, "%-18s %9s %9s %9s %9s %9s %10.1f\n",
				c.Label(),
				c.P50.Round(time.Microsecond).String(),
				c.P90.Round(time.Microsecond).String(),
				c.P99.Round(time.Microsecond).String(),
				c.Mean.Round(time.Microsecond).String(),
				c.SlowestClientMean.Round(time.Microsecond).String(),
				c.OpsPerSec)
		}
		fmt.Fprintln(w)
	}
}
