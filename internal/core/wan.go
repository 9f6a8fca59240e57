package core

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/health"
	"repro/internal/metrics"
	"repro/internal/netqueue"
	"repro/internal/simnet"
	"repro/internal/testbed"
	"repro/internal/tracing"
	"repro/internal/workload"
)

// WAN experiment: the congestion-coupled cluster sweep. Every client's
// traffic multiplexes through one capacity-limited bottleneck link
// (internal/netqueue) instead of an infinitely-parallel segment, and the
// sweep crosses {bottleneck capacity x queue discipline x per-client
// RTT/loss mix} over growing client counts on all four stacks. It is the
// physically-coupled counterpart of the scaling sweep: aggregate
// throughput must plateau at the pipe while per-client latency grows
// with the standing queue, drop-tail overflow pushes TCP flows into
// recovery against each other, and WAN stragglers contend for the same
// buffer as their LAN peers.

// WANMixes names the built-in per-client heterogeneity profiles.
var WANMixes = []string{"lan", "wan", "straggler", "mixed"}

// WANWorkloads lists the supported WAN-sweep workloads.
var WANWorkloads = []string{"seq-write", "seq-read", "rand-read", "rand-write"}

// MixClients expands a named mix into per-client wire overrides for an
// n-client cluster: "lan" (uniform 200 us), "wan" (uniform 40 ms + 0.1%
// loss), "straggler" (LAN except one 40 ms / 1% loss client), and
// "mixed" (alternating LAN / WAN clients).
func MixClients(mix string, n int) ([]testbed.ClientNet, error) {
	if n < 1 {
		return nil, fmt.Errorf("WAN mix needs at least one client, got %d", n)
	}
	lan := testbed.ClientNet{RTT: 200 * time.Microsecond}
	wan := testbed.ClientNet{RTT: 40 * time.Millisecond, LossRate: 0.001}
	out := make([]testbed.ClientNet, n)
	switch mix {
	case "lan":
		for i := range out {
			out[i] = lan
		}
	case "wan":
		for i := range out {
			out[i] = wan
		}
	case "straggler":
		for i := range out {
			out[i] = lan
		}
		out[n-1] = testbed.ClientNet{RTT: 40 * time.Millisecond, LossRate: 0.01}
	case "mixed":
		for i := range out {
			if i%2 == 0 {
				out[i] = lan
			} else {
				out[i] = wan
			}
		}
	default:
		return nil, fmt.Errorf("unknown WAN mix %q (have lan, wan, straggler, mixed)", mix)
	}
	return out, nil
}

// WANConfig parameterizes the sweep.
type WANConfig struct {
	// Counts are the cluster sizes to sweep (default 1,2,4,8,16).
	Counts []int
	// Stacks restricts the sweep (default all four).
	Stacks []Stack
	// Workloads to run (default seq-write, the pipe-saturating one).
	Workloads []string
	// Transports are the wire models swept under the shared link
	// (default TCP — the congestion-response story; fluid also valid).
	Transports []testbed.Transport
	// Capacities are bottleneck bandwidths in bytes/sec per direction
	// (default Gigabit goodput and a 100 Mbit-class 12 MB/s pipe).
	Capacities []int64
	// Disciplines are the queue disciplines swept (default both).
	Disciplines []netqueue.Discipline
	// Mixes are per-client heterogeneity profiles (default lan,
	// straggler; see MixClients).
	Mixes []string
	// QueueBytes bounds the bottleneck buffer per direction
	// (default 256 KB).
	QueueBytes int
	// Conns is the iSCSI MC/S connection count under TCP (default 1).
	Conns int
	// WindowBytes caps each TCP connection's window (default 64 KB).
	WindowBytes int
	// FileSize is the per-client file size (default 1 MB).
	FileSize int64
	// ChunkSize is the per-op transfer unit (default 4 KB).
	ChunkSize int
	// DeviceBlocks is the per-client volume size in 4 KB blocks
	// (default sized from FileSize; the NFS export scales by count).
	DeviceBlocks int64
	// Seed for loss injection and workload randomness.
	Seed int64
	// Health, when non-nil, attaches a gauge scraper + SLO engine to
	// every cell (one monitor per cell; saturation objectives are the
	// useful ones here — no fault runner observes ops in this sweep).
	// Nil keeps the sweep byte-identical to a health-free run.
	Health *health.Config
	// Metrics, when non-nil, receives per-cell telemetry tagged with the
	// sweep axes as experiment=wan (see docs/METRICS.md).
	Metrics *metrics.Recorder
	// Tracer, when non-nil, records per-op span trees for every cell
	// (see docs/TRACING.md).
	Tracer *tracing.Tracer
}

func (c *WANConfig) fill() {
	if len(c.Counts) == 0 {
		c.Counts = []int{1, 2, 4, 8, 16}
	}
	if len(c.Stacks) == 0 {
		c.Stacks = testbed.AllKinds
	}
	if len(c.Workloads) == 0 {
		c.Workloads = []string{"seq-write"}
	}
	if len(c.Transports) == 0 {
		c.Transports = []testbed.Transport{testbed.TransportTCP}
	}
	if len(c.Capacities) == 0 {
		c.Capacities = []int64{117 << 20, 12 << 20}
	}
	if len(c.Disciplines) == 0 {
		c.Disciplines = []netqueue.Discipline{netqueue.DropTail, netqueue.DRR}
	}
	if len(c.Mixes) == 0 {
		c.Mixes = []string{"lan", "straggler"}
	}
	if c.QueueBytes == 0 {
		c.QueueBytes = 256 << 10
	}
	if c.Conns == 0 {
		c.Conns = 1
	}
	if c.FileSize == 0 {
		c.FileSize = 1 << 20
	}
	if c.ChunkSize == 0 {
		c.ChunkSize = 4096
	}
	if c.DeviceBlocks == 0 {
		c.DeviceBlocks = 16384
		if need := c.FileSize / 4096 * 2; need > c.DeviceBlocks {
			c.DeviceBlocks = need
		}
	}
}

// WANCell is one (workload, stack, transport, mix, discipline, capacity,
// client-count) measurement over the shared bottleneck.
type WANCell struct {
	Workload   string
	Stack      Stack
	Transport  testbed.Transport
	Clients    int
	Capacity   int64
	Discipline netqueue.Discipline
	Mix        string

	// Elapsed is the cluster-wide measured window (run + drain);
	// AggBytesPerSec the aggregate payload throughput over it.
	Elapsed        time.Duration
	AggBytesPerSec float64
	// PerClientLatency is the mean per-syscall latency across clients;
	// StragglerLatency the slowest client's mean — the straggler signal.
	PerClientLatency time.Duration
	StragglerLatency time.Duration
	// ServerCPU is mean server CPU utilization over the window.
	ServerCPU float64
	// Link-level congestion signals over the window: drop-tail queue
	// drops, total head-of-line wait, and the high-water backlog.
	QueueDrops    int64
	HOLWait       time.Duration
	MaxDepthBytes int64
	// Collapsed marks a cell whose configuration suffered congestion
	// collapse: a transport connection died (TCP retransmissions
	// exhausted, or a datagram retry budget spent) before the workload
	// completed, so the cell carries no measurements. The paper's
	// harness would report "server not responding" here; the sweep
	// reports the regime boundary instead of aborting.
	Collapsed bool
}

// Label names the variant the way the tables print it.
func (c WANCell) Label() string {
	if c.Stack == ISCSI && c.Transport == testbed.TransportTCP {
		return fmt.Sprintf("%s/tcp", c.Stack)
	}
	return fmt.Sprintf("%s/%s", c.Stack, c.Transport)
}

// RunWAN sweeps the shared-bottleneck cluster across every axis. Cells
// come out in deterministic order; identical seeds give identical cells.
// Invalid stack/transport pairs (iSCSI over UDP) are skipped. A cell
// whose configuration collapses — a transport connection dies under
// sustained queue overflow before the workload completes — comes back
// with Collapsed set rather than aborting the sweep (its telemetry end
// mark carries collapsed=1 and no measurements): in a congestion study
// the collapse boundary is a finding.
func RunWAN(cfg WANConfig) ([]WANCell, error) {
	cfg.fill()
	var cells []WANCell
	for _, wl := range cfg.Workloads {
		for _, mix := range cfg.Mixes {
			for _, q := range cfg.Disciplines {
				for _, capacity := range cfg.Capacities {
					for _, stack := range cfg.Stacks {
						for _, tr := range cfg.Transports {
							if stack == ISCSI && tr == testbed.TransportUDP {
								continue
							}
							for _, n := range cfg.Counts {
								cell, err := runWANCell(cfg, wl, mix, q, capacity, stack, tr, n)
								if err != nil {
									return nil, fmt.Errorf("wan %s/%s/%s/%d B/s/%v(%v)/%d: %w",
										wl, mix, q, capacity, stack, tr, n, err)
								}
								cells = append(cells, cell)
							}
						}
					}
				}
			}
		}
	}
	return cells, nil
}

// runWANCell builds one congestion-coupled cluster and measures one
// workload on it. A transport-broken error anywhere in the cell (mount,
// setup or the measured window) marks it Collapsed instead of failing;
// a collapse inside the measured window still emits the cell's end mark
// (collapsed=1) so the stream's begin/end pairs stay balanced.
func runWANCell(cfg WANConfig, wl, mix string, q netqueue.Discipline,
	capacity int64, stack Stack, tr testbed.Transport, n int) (WANCell, error) {
	axes := WANCell{Workload: wl, Stack: stack, Transport: tr,
		Clients: n, Capacity: capacity, Discipline: q, Mix: mix}
	collapsed := func(err error) bool { return errors.Is(err, simnet.ErrTransportBroken) }
	perClient, err := MixClients(mix, n)
	if err != nil {
		return WANCell{}, err
	}
	dev := cfg.DeviceBlocks
	if stack != ISCSI {
		dev *= int64(n)
	}
	conns := 1
	if stack == ISCSI && tr == testbed.TransportTCP {
		conns = cfg.Conns
	}
	tags := metrics.Tags{
		"workload": wl,
		"clients":  itoa(n),
		"capacity": strconv.FormatInt(capacity, 10),
		"qdisc":    q.String(),
		"mix":      mix,
		"conns":    itoa(conns),
	}
	var mon *health.Monitor
	if cfg.Health != nil {
		if mon, err = health.New(*cfg.Health); err != nil {
			return WANCell{}, err
		}
	}
	cl, err := testbed.NewCluster(testbed.Config{
		Kind:         stack,
		Clients:      n,
		DeviceBlocks: dev,
		Seed:         cfg.Seed,
		Transport:    tr,
		Conns:        conns,
		WindowBytes:  cfg.WindowBytes,
		Shared: &netqueue.Config{
			Bandwidth:  capacity,
			QueueBytes: cfg.QueueBytes,
			Discipline: q,
		},
		PerClient: perClient,
		Metrics:   cellRecorder(cfg.Metrics, "wan", stack, tags),
		Tracer:    cfg.Tracer,
		Health:    mon,
	})
	if err != nil {
		if collapsed(err) {
			axes.Collapsed = true
			return axes, nil
		}
		return WANCell{}, err
	}

	src := workload.SeqRandConfig{FileSize: cfg.FileSize, ChunkSize: cfg.ChunkSize}

	// Unmeasured setup: per-client directories, plus layout and a cold
	// cache for the read workloads.
	for i, c := range cl.Clients {
		if err := c.Mkdir(clientDir(i)); err != nil {
			if collapsed(err) {
				axes.Collapsed = true
				return axes, nil
			}
			return WANCell{}, err
		}
	}
	if wl == "seq-read" || wl == "rand-read" {
		prep := make([]func() (bool, error), n)
		for i, c := range cl.Clients {
			pc := src
			pc.Seed = cfg.Seed + int64(i)
			prep[i] = workload.PrepareFileSteps(c, clientDir(i)+"/f", pc)
		}
		err := cl.Run(prep)
		if err == nil {
			err = cl.ColdCache()
		}
		if err != nil {
			if collapsed(err) {
				axes.Collapsed = true
				return axes, nil
			}
			return WANCell{}, err
		}
	}
	cl.Align()

	drivers := make([]func() (bool, error), n)
	var aggBytes int64
	for i, c := range cl.Clients {
		pc := src
		pc.Seed = cfg.Seed + int64(i)
		path := clientDir(i) + "/f"
		switch wl {
		case "seq-write":
			drivers[i] = workload.SequentialWriteSteps(c, path, pc)
			aggBytes += pc.SeqBytes()
		case "seq-read":
			drivers[i] = workload.SequentialReadSteps(c, path, pc)
			aggBytes += pc.SeqBytes()
		case "rand-read":
			drivers[i] = workload.RandomReadSteps(c, path, pc)
			aggBytes += pc.RandBytes()
		case "rand-write":
			drivers[i] = workload.RandomWriteSteps(c, path, pc)
			aggBytes += pc.RandBytes()
		default:
			return WANCell{}, fmt.Errorf("unknown WAN workload %q", wl)
		}
	}

	// Measured window: interleaved run, then drain to quiescence.
	beginCell(cl, nil)
	cl.Link.RearmDepth() // window-scoped peak backlog, setup excluded
	before := cl.Snap()
	linkBefore := cl.Link.Stats()
	startOps := make([]int64, n)
	startT := make([]time.Duration, n)
	for i, c := range cl.Clients {
		startOps[i] = c.Ops()
		startT[i] = c.Clock.Now()
	}
	err = cl.Run(drivers)
	var latSum, latMax time.Duration
	for i, c := range cl.Clients {
		if ops := c.Ops() - startOps[i]; ops > 0 {
			lat := (c.Clock.Now() - startT[i]) / time.Duration(ops)
			latSum += lat
			if lat > latMax {
				latMax = lat
			}
		}
	}
	if err == nil {
		err = cl.Drain()
	}
	if err != nil {
		if collapsed(err) {
			endCell(cl, nil, map[string]float64{"collapsed": 1})
			axes.Collapsed = true
			return axes, nil
		}
		return WANCell{}, err
	}
	d := cl.Since(before)
	link := cl.Link.Stats()
	elapsed := d.Elapsed
	if elapsed <= 0 {
		elapsed = time.Millisecond
	}
	cell := axes
	cell.Elapsed = elapsed
	cell.AggBytesPerSec = float64(aggBytes) / elapsed.Seconds()
	cell.PerClientLatency = latSum / time.Duration(n)
	cell.StragglerLatency = latMax
	cell.ServerCPU = float64(d.ServerBusy) / float64(elapsed)
	cell.QueueDrops = link.Drops() - linkBefore.Drops()
	cell.HOLWait = link.HOLWait() - linkBefore.HOLWait()
	cell.MaxDepthBytes = cl.Link.DepthHighWater()
	endCell(cl, nil, map[string]float64{
		"elapsed_ns":            float64(cell.Elapsed),
		"agg_bytes_per_sec":     cell.AggBytesPerSec,
		"per_client_latency_ns": float64(cell.PerClientLatency),
		"straggler_latency_ns":  float64(cell.StragglerLatency),
		"server_cpu":            cell.ServerCPU,
		"queue_drops":           float64(cell.QueueDrops),
		"hol_wait_ns":           float64(cell.HOLWait),
		"depth_max_bytes":       float64(cell.MaxDepthBytes),
	})
	return cell, nil
}

// RenderWAN prints the sweep: one block per (workload, mix, discipline,
// capacity) panel, stacks as row groups, client counts as columns.
func RenderWAN(w io.Writer, cells []WANCell) {
	type panel struct {
		wl, mix  string
		q        netqueue.Discipline
		capacity int64
	}
	var panels []panel
	var counts []int
	seenP := map[panel]bool{}
	seenC := map[int]bool{}
	byPanel := map[panel]map[string]map[int]WANCell{}
	var labels []string
	seenL := map[string]bool{}
	for _, c := range cells {
		p := panel{c.Workload, c.Mix, c.Discipline, c.Capacity}
		if !seenP[p] {
			seenP[p] = true
			panels = append(panels, p)
			byPanel[p] = map[string]map[int]WANCell{}
		}
		if !seenC[c.Clients] {
			seenC[c.Clients] = true
			counts = append(counts, c.Clients)
		}
		l := c.Label()
		if !seenL[l] {
			seenL[l] = true
			labels = append(labels, l)
		}
		if byPanel[p][l] == nil {
			byPanel[p][l] = map[int]WANCell{}
		}
		byPanel[p][l][c.Clients] = c
	}

	row := func(byCount map[int]WANCell, f func(WANCell) string) string {
		out := ""
		for _, n := range counts {
			c, ok := byCount[n]
			if !ok {
				out += fmt.Sprintf(" %9s", "-")
				continue
			}
			out += fmt.Sprintf(" %9s", f(c))
		}
		return out
	}

	for _, p := range panels {
		fmt.Fprintf(w, "WAN sweep: %s, mix=%s, qdisc=%s, pipe=%.1f MB/s, shared bottleneck\n",
			p.wl, p.mix, p.q, float64(p.capacity)/1e6)
		fmt.Fprintf(w, "%-22s", "clients")
		for _, n := range counts {
			fmt.Fprintf(w, " %9d", n)
		}
		fmt.Fprintln(w)
		for _, l := range labels {
			byCount := byPanel[p][l]
			if byCount == nil {
				continue
			}
			fmt.Fprintf(w, "%-22s%s\n", l+" agg MB/s",
				row(byCount, func(c WANCell) string {
					if c.Collapsed {
						return "collapse"
					}
					return fmt.Sprintf("%.1f", c.AggBytesPerSec/1e6)
				}))
			fmt.Fprintf(w, "%-22s%s\n", "  per-op latency",
				row(byCount, func(c WANCell) string {
					if c.Collapsed {
						return "-"
					}
					return c.PerClientLatency.Round(time.Microsecond).String()
				}))
			fmt.Fprintf(w, "%-22s%s\n", "  straggler",
				row(byCount, func(c WANCell) string {
					if c.Collapsed {
						return "-"
					}
					return c.StragglerLatency.Round(time.Microsecond).String()
				}))
			fmt.Fprintf(w, "%-22s%s\n", "  queue drops",
				row(byCount, func(c WANCell) string {
					if c.Collapsed {
						return "-"
					}
					return fmt.Sprintf("%d", c.QueueDrops)
				}))
		}
		fmt.Fprintln(w)
	}
}
