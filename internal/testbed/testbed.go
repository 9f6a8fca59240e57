// Package testbed assembles the paper's two experimental configurations
// (Figure 2): clients driving an NFS v2/v3/v4 server, and clients whose
// local ext3 filesystems sit on iSCSI volumes. Both share the same
// simulated hardware: a Gigabit Ethernet link, a 4+p RAID-5 array of 10K
// RPM drives, a dual-CPU server and uniprocessor clients.
//
// There is one harness. Cluster (cluster.go) builds N clients sharing
// one server from one Config, registers their telemetry, and provides
// the paper's measurement controls: cold-cache emulation (server restart
// plus client remount), warm-cache gaps, drain points, and
// delta-snapshots of every counter. Testbed is the one-client view of a
// Cluster that the paper's single-client tables and figures use. The
// protocol-specific plumbing lives behind the Stack interface (stack.go);
// the per-client machine and syscall surface is Client (client.go).
package testbed

import (
	"fmt"
	"time"

	"repro/internal/fleet"
	"repro/internal/health"
	"repro/internal/metrics"
	"repro/internal/netqueue"
	"repro/internal/simnet"
	"repro/internal/tcpsim"
	"repro/internal/tracing"
)

// Kind selects the storage stack.
type Kind int

// Stacks under comparison.
const (
	NFSv2 Kind = iota
	NFSv3
	NFSv4
	ISCSI
)

// String names the stack the way the paper's tables do.
func (k Kind) String() string {
	switch k {
	case NFSv2:
		return "NFS v2"
	case NFSv3:
		return "NFS v3"
	case NFSv4:
		return "NFS v4"
	default:
		return "iSCSI"
	}
}

// Tag returns the kind's metrics tag value ("nfsv2".."nfsv4", "iscsi"):
// the stack vocabulary documented in docs/METRICS.md.
func (k Kind) Tag() string {
	switch k {
	case NFSv2:
		return "nfsv2"
	case NFSv3:
		return "nfsv3"
	case NFSv4:
		return "nfsv4"
	default:
		return "iscsi"
	}
}

// AllKinds lists the four stacks in the paper's table order.
var AllKinds = []Kind{NFSv2, NFSv3, NFSv4, ISCSI}

// Transport selects the wire model protocol bytes ride on.
type Transport int

// Transport modes.
const (
	// TransportFluid is the original model: every message is one lossy
	// datagram charged serialization plus half-RTT propagation.
	TransportFluid Transport = iota
	// TransportUDP forces datagram RPC with client-side timeouts for
	// every NFS version (the paper's Linux client ran v3 over UDP).
	// iSCSI rejects it: the protocol requires TCP.
	TransportUDP
	// TransportTCP runs protocol bytes through tcpsim virtual-time TCP
	// connections: slow start, window caps, delayed ACKs and RTO-driven
	// retransmission replace the fluid charges.
	TransportTCP
)

// String returns the transport's metrics tag value ("fluid", "udp",
// "tcp"), the transport vocabulary documented in docs/METRICS.md.
func (t Transport) String() string {
	switch t {
	case TransportUDP:
		return "udp"
	case TransportTCP:
		return "tcp"
	default:
		return "fluid"
	}
}

// Config parameterizes a cluster: Clients machines driving one server
// over a shared Gigabit segment. The zero value of every field is a
// working default; New takes the same Config with Clients at most 1.
type Config struct {
	Kind Kind
	// Clients is the number of concurrent client machines (default 1).
	Clients int
	// DeviceBlocks sizes each client's iSCSI LUN, or the shared NFS
	// export, in 4 KB blocks (default 524288 = 2 GB).
	DeviceBlocks int64
	// RTT overrides the LAN round-trip time (default ~200 us; the
	// latency sweep raises it).
	RTT time.Duration
	// LossRate injects frame loss on every client's path (failure and
	// WAN testing; per-client overrides via PerClient).
	LossRate float64
	// CommitInterval overrides ext3's journal commit interval (5 s).
	CommitInterval time.Duration
	// NoAtime disables access-time updates (ablation).
	NoAtime bool
	// ClientCacheBlocks bounds each client cache (default 131072 =
	// 512 MB, the testbed client's RAM).
	ClientCacheBlocks int
	// ServerCacheBlocks bounds the server cache (default 262144 = 1 GB).
	ServerCacheBlocks int
	// Seed for loss injection and workloads.
	Seed int64
	// Transport selects the wire model every client uses (default
	// TransportFluid).
	Transport Transport
	// Conns is the iSCSI MC/S connection count under TransportTCP
	// (default 1; NFS always uses a single connection).
	Conns int
	// WindowBytes caps each TCP connection's window — the rmem/wmem
	// tuning knob from Section 3.1 (default 64 KB).
	WindowBytes int
	// Shared, when non-nil, multiplexes every client's traffic through
	// one capacity-limited bottleneck (see internal/netqueue): each
	// client gets its own simnet network — carrying its RTT and loss —
	// admitted through one shared drop-tail (or fair-queued) pipe, so
	// N-client saturation comes from the wire, not per-client pipeline
	// depth. Nil keeps today's independent-links model byte-identically.
	Shared *netqueue.Config
	// PerClient gives client i its own RTT/loss (stragglers). Entries
	// beyond it, and zero fields, inherit the cluster defaults. Setting
	// it switches the cluster to per-client networks even without a
	// Shared bottleneck, and tags each client's metric sources with its
	// rtt/loss so straggler attribution is a -by client query.
	PerClient []ClientNet
	// Background, when non-empty, adds fluid client cohorts: their
	// calibrated demand is solved to a fleet operating point
	// (internal/fleet) and injected as background load on the server CPU,
	// the array and the shared bottleneck link, so the Clients mechanistic
	// clients run against residual capacity. Fleet-level aggregates stream
	// as metrics.SubsysFleet counters.
	Background []fleet.Cohort
	// CapacityClients sizes the iSCSI storage array as if this many
	// clients attached (default Clients plus the Background population),
	// so a hybrid run's mechanistic LUNs see the seek distances a full
	// mechanistic fleet would. (The NFS export is sized by DeviceBlocks
	// directly; scale that instead.)
	CapacityClients int
	// TelemetryFanIn bounds per-client metric sources: above it, only a
	// stratified sample of clients per heterogeneity stratum registers
	// sources, tagged sampled/population/sample so summaries re-weight
	// (docs/METRICS.md). 0 means DefaultTelemetryFanIn; negative disables
	// sampling and registers every client.
	TelemetryFanIn int
	// Metrics, when non-nil, receives the telemetry: shared hardware and
	// per-client protocol sources are registered at construction and
	// EmitSample streams the deltas (see docs/METRICS.md). Events are
	// additionally tagged with the wire transport.
	Metrics *metrics.Recorder
	// Tracer, when non-nil, threads virtual-time span tracing through
	// every client's stack and the shared hardware: syscall roots
	// carrying the issuing client's id, cache decisions, RPC/iSCSI
	// exchanges, wire frames, CPU service and disk phases (see
	// docs/TRACING.md). The scheduler runs one client's syscall to
	// completion per step, so one tracer serves all.
	Tracer *tracing.Tracer
	// Health, when non-nil, attaches a virtual-time health monitor: the
	// cluster registers its per-station gauge sources on it (see
	// gauges.go) and Run spawns its scrape loop alongside the drivers,
	// so gauge and alert events stream through Metrics in virtual time
	// (docs/HEALTH.md). Alert state is per-monitor, so give each
	// experiment cell its own. Nil is the inert state: no gauge sources,
	// no scrape process, byte-identical streams.
	Health *health.Monitor
	// Sharing, when non-nil, enables cross-client sharing: an NFS
	// cluster gets a server-side byte-range lock manager (and, with
	// Delegation, the v4 lease machinery); an iSCSI cluster gets one
	// extra raw LUN exported by every client's target under a shared
	// persistent-reservation table (see sharing.go). Nil keeps all
	// existing configurations byte-identical.
	Sharing *SharingConfig
}

func (c *Config) fill() {
	if c.Clients <= 0 {
		c.Clients = 1
	}
	if c.DeviceBlocks == 0 {
		c.DeviceBlocks = 524288
	}
	if c.RTT == 0 {
		c.RTT = 200 * time.Microsecond
	}
	if c.CommitInterval == 0 {
		c.CommitInterval = 5 * time.Second
	}
	if c.ClientCacheBlocks == 0 {
		c.ClientCacheBlocks = 131072
	}
	if c.ServerCacheBlocks == 0 {
		c.ServerCacheBlocks = 262144
	}
	if c.Conns == 0 {
		c.Conns = 1
	}
	if c.WindowBytes == 0 {
		c.WindowBytes = 64 << 10
	}
}

// validate rejects transport combinations no real deployment has and
// unusable cluster parameters. It runs on a filled config.
func (c *Config) validate() error {
	if c.Kind == ISCSI && c.Transport == TransportUDP {
		return fmt.Errorf("testbed: iSCSI requires TCP (no UDP transport exists)")
	}
	if c.Conns > 1 && (c.Transport != TransportTCP || c.Kind != ISCSI) {
		return fmt.Errorf("testbed: multiple connections (MC/S) require Kind=ISCSI and TransportTCP")
	}
	if len(c.PerClient) > c.Clients {
		return fmt.Errorf("testbed: %d PerClient entries for %d clients", len(c.PerClient), c.Clients)
	}
	for i, p := range c.PerClient {
		if p.RTT < 0 {
			return fmt.Errorf("testbed: client %d negative RTT", i)
		}
		if p.LossRate < 0 || p.LossRate >= 1 {
			return fmt.Errorf("testbed: client %d loss rate %g out of [0, 1)", i, p.LossRate)
		}
	}
	for _, co := range c.Background {
		if err := co.Validate(); err != nil {
			return err
		}
	}
	if c.Sharing != nil {
		if err := c.Sharing.validate(c.Kind); err != nil {
			return err
		}
	}
	if c.Shared != nil {
		return c.Shared.Validate()
	}
	return nil
}

// tcpConfig builds the per-connection TCP parameters. Nagle is off: the
// Linux NFS client and every serious iSCSI initiator set TCP_NODELAY so a
// sub-MSS request or response tail is not held hostage to the delayed-ACK
// timer (RFC 3720 recommends it explicitly).
func (c Config) tcpConfig() tcpsim.Config {
	return tcpsim.Config{WindowBytes: c.WindowBytes, DisableNagle: true}
}

// network builds the simulated LAN for a config.
func (c Config) network() *simnet.Network {
	return simnet.New(simnet.Config{
		RTT:              c.RTT,
		Bandwidth:        117 << 20,
		PerFrameOverhead: 66,
		LossRate:         c.LossRate,
		Seed:             c.Seed,
	})
}

// clientNetwork builds client i's own network: the config's wire plus
// its PerClient override.
func (c Config) clientNetwork(i int) *simnet.Network {
	// Decorrelate per-client loss RNGs (one shared network draws from a
	// single stream; N networks must not mirror each other).
	c.Seed += int64(i+1) * 7919
	if i < len(c.PerClient) {
		if p := c.PerClient[i]; p.RTT > 0 {
			c.RTT = p.RTT
		}
		if p := c.PerClient[i]; p.LossRate > 0 {
			c.LossRate = p.LossRate
		}
	}
	return c.network()
}

// Testbed is the one-client view of a Cluster that the paper's
// single-client experiments run on: the cluster's shared hardware and
// measurement controls plus its only Client, whose syscall surface it
// exposes directly.
type Testbed struct {
	*Cluster
	*Client
}

// New builds and mounts a one-client testbed. cfg.Clients must be 0 or 1;
// NewCluster builds more.
func New(cfg Config) (*Testbed, error) {
	if cfg.Clients > 1 {
		return nil, fmt.Errorf("testbed: New builds one client, not %d (use NewCluster)", cfg.Clients)
	}
	cl, err := NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	return &Testbed{Cluster: cl, Client: cl.Clients[0]}, nil
}

// Drain brings the system to quiescence: all dirty client state flushed
// and durable at the server, the virtual clock advanced past all
// background work. This is the measurement boundary for the paper's
// message counts. Cluster and Client both have a Drain, so Testbed names
// the cluster's, which also aligns the clocks (a no-op for one client).
func (tb *Testbed) Drain() error { return tb.Cluster.Drain() }

// Link creates a hard link. Cluster's bottleneck Link field shadows the
// client syscall, so Testbed names it.
func (tb *Testbed) Link(oldpath, newpath string) error { return tb.Client.Link(oldpath, newpath) }
