package core

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/fault"
	"repro/internal/health"
	"repro/internal/metrics"
	"repro/internal/simnet"
	"repro/internal/testbed"
	"repro/internal/tracing"
)

// Fault experiment: the failure-and-recovery axis. Each cell builds a
// fresh cluster, runs the seeded fault plan from internal/fault against
// it — server crash + journal-replay reboot, RAID member failure +
// contended rebuild, network partitions, client crash — and reports
// time-to-recover, degraded-mode throughput, and lost/retried op counts
// per {family x stack x transport}. The paper benchmarks the happy
// path; this sweep asks which stack degrades and comes back better when
// the same hardware faults hit both.

// FaultConfig parameterizes the sweep.
type FaultConfig struct {
	// Families restricts the fault families (default all four).
	Families []fault.Family
	// Stacks restricts the sweep (default all four).
	Stacks []Stack
	// Transports are the wire models swept (default fluid and TCP).
	Transports []testbed.Transport
	// Clients is the cluster size (default 2: a victim and a witness).
	Clients int
	// Warmup is the fault-free lead-in; Outage each inject-to-heal
	// distance; Flaps the link-flap cycle count (see fault.PlanConfig).
	Warmup, Outage time.Duration
	Flaps          int
	// Victim selects the crashed client / failed array member.
	Victim int
	// Conns is the iSCSI MC/S connection count under TCP (default 1).
	Conns int
	// WindowBytes caps each TCP connection's window (default 64 KB).
	WindowBytes int
	// DeviceBlocks sizes each volume in 4 KB blocks (default 16384 =
	// 64 MB, small enough that a RAID rebuild completes in-cell).
	DeviceBlocks int64
	// Seed drives fault-instant jitter, loss and workload randomness.
	Seed int64
	// Health, when non-nil, attaches a gauge scraper + SLO engine to
	// every cell (alert state is per-cell: each cell gets its own
	// monitor built from this spec). Nil keeps the sweep byte-identical
	// to a health-free run.
	Health *health.Config
	// Metrics, when non-nil, receives per-cell telemetry tagged with the
	// sweep axes as experiment=fault (see docs/METRICS.md).
	Metrics *metrics.Recorder
	// Tracer, when non-nil, records per-op span trees for every cell.
	Tracer *tracing.Tracer
}

func (c *FaultConfig) fill() {
	if len(c.Families) == 0 {
		c.Families = append([]fault.Family(nil), fault.Families...)
	}
	if len(c.Stacks) == 0 {
		c.Stacks = testbed.AllKinds
	}
	if len(c.Transports) == 0 {
		c.Transports = []testbed.Transport{testbed.TransportFluid, testbed.TransportTCP}
	}
	if c.Clients <= 0 {
		c.Clients = 2
	}
	if c.Conns == 0 {
		c.Conns = 1
	}
	if c.DeviceBlocks == 0 {
		c.DeviceBlocks = 16384
	}
}

// FaultCell is one (family, stack, transport) recovery measurement.
type FaultCell struct {
	Family    fault.Family
	Stack     Stack
	Transport testbed.Transport
	Clients   int

	// Inject/Healed/Recovered are absolute virtual times; TTR is the
	// client-visible outage, repair included (see fault.Result).
	Inject, Healed, Recovered, TTR time.Duration
	// Window throughputs in successful ops/sec, and the matching counts.
	PreRate, DegradedRate, PostRate float64
	PreOps, DegradedOps, PostOps    int64
	// FailedOps are op errors clients observed; LostOps adds the ops a
	// crashed client never issued.
	FailedOps, LostOps int64
	// Fault-path traffic: RAID rebuild member blocks, wire + RPC
	// retransmissions, frames the partition ate.
	RebuildBlocks, Retransmits, Dropped int64
	// Collapsed marks a cell whose service never recovered before the
	// run's hard stop (or whose transport died during setup).
	Collapsed bool
}

// Label names the variant the way the tables print it.
func (c FaultCell) Label() string {
	if c.Stack == ISCSI && c.Transport == testbed.TransportTCP {
		return fmt.Sprintf("%s/tcp", c.Stack)
	}
	return fmt.Sprintf("%s/%s", c.Stack, c.Transport)
}

// RunFault sweeps fault families over stacks and transports. Cells come
// out in deterministic order; identical seeds give byte-identical cells
// (the determinism the fault test suite enforces). Invalid pairs (iSCSI
// over UDP) are skipped; a cell that never recovers is reported with
// Collapsed set rather than aborting the sweep.
func RunFault(cfg FaultConfig) ([]FaultCell, error) {
	cfg.fill()
	var cells []FaultCell
	for _, f := range cfg.Families {
		for _, stack := range cfg.Stacks {
			for _, tr := range cfg.Transports {
				if stack == ISCSI && tr == testbed.TransportUDP {
					continue
				}
				cell, err := runFaultCell(cfg, f, stack, tr)
				if err != nil {
					return nil, fmt.Errorf("fault %s/%v(%v): %w", f, stack, tr, err)
				}
				cells = append(cells, cell)
			}
		}
	}
	return cells, nil
}

// runFaultCell builds one cluster and runs one fault plan against it.
// The whole cell — working-set setup, fault timeline, recovery — sits
// between the cell's begin/end marks; the end mark carries the recovery
// measurements (or collapsed=1).
func runFaultCell(cfg FaultConfig, f fault.Family, stack Stack, tr testbed.Transport) (FaultCell, error) {
	axes := FaultCell{Family: f, Stack: stack, Transport: tr, Clients: cfg.Clients}
	conns := 1
	if stack == ISCSI && tr == testbed.TransportTCP {
		conns = cfg.Conns
	}
	tags := metrics.Tags{
		"family":  string(f),
		"clients": itoa(cfg.Clients),
		"conns":   itoa(conns),
	}
	var mon *health.Monitor
	if cfg.Health != nil {
		var err error
		if mon, err = health.New(*cfg.Health); err != nil {
			return FaultCell{}, err
		}
	}
	cl, err := testbed.NewCluster(testbed.Config{
		Kind:         stack,
		Clients:      cfg.Clients,
		DeviceBlocks: cfg.DeviceBlocks,
		Seed:         cfg.Seed,
		Transport:    tr,
		Conns:        conns,
		WindowBytes:  cfg.WindowBytes,
		Metrics:      cellRecorder(cfg.Metrics, "fault", stack, tags),
		Tracer:       cfg.Tracer,
		Health:       mon,
	})
	if err != nil {
		if errors.Is(err, simnet.ErrTransportBroken) {
			axes.Collapsed = true
			return axes, nil
		}
		return FaultCell{}, err
	}
	plan, err := fault.NewPlan(f, fault.PlanConfig{
		Warmup: cfg.Warmup,
		Outage: cfg.Outage,
		Flaps:  cfg.Flaps,
		Victim: cfg.Victim,
		Seed:   cfg.Seed,
	})
	if err != nil {
		return FaultCell{}, err
	}

	beginCell(cl, nil)
	res, err := fault.Run(cl, fault.Config{Plan: plan})
	if err != nil {
		if errors.Is(err, simnet.ErrTransportBroken) {
			endCell(cl, nil, map[string]float64{"collapsed": 1})
			axes.Collapsed = true
			return axes, nil
		}
		return FaultCell{}, err
	}

	cell := axes
	cell.Inject, cell.Healed, cell.Recovered, cell.TTR = res.Inject, res.Healed, res.Recovered, res.TTR
	cell.PreRate, cell.DegradedRate, cell.PostRate = res.PreRate, res.DegradedRate, res.PostRate
	cell.PreOps, cell.DegradedOps, cell.PostOps = res.PreOps, res.DegradedOps, res.PostOps
	cell.FailedOps, cell.LostOps = res.FailedOps, res.LostOps
	cell.RebuildBlocks, cell.Retransmits, cell.Dropped = res.RebuildBlocks, res.Retransmits, res.Dropped
	cell.Collapsed = res.Collapsed
	if cell.Collapsed {
		endCell(cl, nil, map[string]float64{"collapsed": 1})
		return cell, nil
	}
	endCell(cl, nil, map[string]float64{
		"ttr_ns":               float64(cell.TTR),
		"inject_ns":            float64(cell.Inject),
		"recovered_ns":         float64(cell.Recovered),
		"pre_ops_per_sec":      cell.PreRate,
		"degraded_ops_per_sec": cell.DegradedRate,
		"post_ops_per_sec":     cell.PostRate,
		"degraded_ops":         float64(cell.DegradedOps),
		"failed_ops":           float64(cell.FailedOps),
		"lost_ops":             float64(cell.LostOps),
		"rebuild_blocks":       float64(cell.RebuildBlocks),
		"retransmits":          float64(cell.Retransmits),
		"dropped_frames":       float64(cell.Dropped),
	})
	return cell, nil
}

// RenderFault prints the sweep: one panel per fault family, one row
// group per stack/transport variant.
func RenderFault(w io.Writer, cells []FaultCell) {
	var families []fault.Family
	seenF := map[fault.Family]bool{}
	var labels []string
	seenL := map[string]bool{}
	byCell := map[fault.Family]map[string]FaultCell{}
	for _, c := range cells {
		if !seenF[c.Family] {
			seenF[c.Family] = true
			families = append(families, c.Family)
			byCell[c.Family] = map[string]FaultCell{}
		}
		if l := c.Label(); !seenL[l] {
			seenL[l] = true
			labels = append(labels, l)
		}
		byCell[c.Family][c.Label()] = c
	}
	for _, f := range families {
		fmt.Fprintf(w, "fault: %s\n", f)
		fmt.Fprintf(w, "%-16s %10s %10s %10s %10s %7s %7s %9s\n",
			"stack", "ttr", "pre/s", "degr/s", "post/s", "failed", "lost", "recovery")
		for _, l := range labels {
			c, ok := byCell[f][l]
			if !ok {
				continue
			}
			if c.Collapsed {
				fmt.Fprintf(w, "%-16s %10s\n", l, "collapse")
				continue
			}
			extra := ""
			switch f {
			case fault.DiskFail:
				extra = fmt.Sprintf("rebuild=%d blk", c.RebuildBlocks)
			case fault.LinkFlap:
				extra = fmt.Sprintf("drops=%d", c.Dropped)
			default:
				extra = fmt.Sprintf("retrans=%d", c.Retransmits)
			}
			fmt.Fprintf(w, "%-16s %10s %10.1f %10.1f %10.1f %7d %7d %9s  %s\n",
				l, c.TTR.Round(time.Millisecond), c.PreRate, c.DegradedRate,
				c.PostRate, c.FailedOps, c.LostOps,
				(c.Recovered - c.Healed).Round(time.Millisecond), extra)
		}
		fmt.Fprintln(w)
	}
}
