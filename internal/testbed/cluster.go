package testbed

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/blockdev"
	"repro/internal/ext3"
	"repro/internal/fleet"
	"repro/internal/health"
	"repro/internal/iscsi"
	"repro/internal/lockmgr"
	"repro/internal/metrics"
	"repro/internal/netqueue"
	"repro/internal/scsi"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/sunrpc"
	"repro/internal/tracing"
)

// ClientNet overrides one client's wire characteristics: the per-client
// heterogeneity axis that makes WAN stragglers expressible. Zero fields
// inherit the cluster defaults.
type ClientNet struct {
	// RTT is this client's round-trip propagation delay.
	RTT time.Duration
	// LossRate is this client's frame loss probability.
	LossRate float64
}

// ClusterConfig is an alias of Config, kept for callers that spell the
// cluster-shaped name.
type ClusterConfig = Config

// DefaultTelemetryFanIn is the per-stratum client-source limit above which
// a cluster's telemetry switches to stratified sampling. It is comfortably
// above every mechanistic sweep in the paper (16 clients), so sampling
// only engages on fleet-scale runs.
const DefaultTelemetryFanIn = 64

// Cluster is N concurrent clients sharing one server: one network segment,
// one server CPU and one RAID-5 array. NFS clients mount the same export;
// iSCSI clients each own a LUN partition of the shared array.
type Cluster struct {
	Kind Kind
	Cfg  Config

	// Net is the shared segment in independent-links mode; nil when
	// per-client networks are in play (a Shared bottleneck or PerClient
	// heterogeneity) — use ClientNetwork / Snap then.
	Net *simnet.Network
	// Link is the shared bottleneck every client's network admits
	// through (nil unless Cfg.Shared was set).
	Link      *netqueue.Link
	ServerCPU *sim.CPU
	Clients   []*Client

	nets []*simnet.Network // one per client when heterogeneous; else len 1
	dev  *blockdev.Local   // NFS export device (nil for iSCSI)
	luns []*blockdev.Local // iSCSI LUNs (nil for NFS)
	srv  *nfsServer        // shared NFS server state (nil for iSCSI)

	// Cross-client sharing state (nil unless Cfg.Sharing was set).
	locks  *lockmgr.Manager     // NFS byte-range lock table (on the server)
	deleg  *lockmgr.Delegations // NFSv4 lease table (with Sharing.Delegation)
	rsv    *scsi.Reservations   // iSCSI persistent-reservation table
	shared *blockdev.Local      // iSCSI shared LUN (raw, no filesystem)

	fluid *fleet.Operating // solved background operating point (nil if none)

	rec    *metrics.Recorder
	health *health.Monitor // nil unless Cfg.Health was set
}

// NewCluster builds and mounts an N-client cluster.
func NewCluster(cfg Config) (*Cluster, error) {
	cfg.fill()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cl := &Cluster{
		Kind:      cfg.Kind,
		Cfg:       cfg,
		ServerCPU: sim.NewCPU(1.87), // 2 x 933 MHz
	}
	if cfg.Shared != nil {
		cl.Link = netqueue.New(*cfg.Shared)
	}
	if cfg.Shared != nil || len(cfg.PerClient) > 0 {
		// Per-client networks: each carries its own RTT/loss; a shared
		// bottleneck (if any) couples their serialization.
		cl.nets = make([]*simnet.Network, cfg.Clients)
		for i := range cl.nets {
			n := cfg.clientNetwork(i)
			if cl.Link != nil {
				n.AttachShared(cl.Link.Endpoint(netqueue.EndpointConfig{}))
			}
			cl.nets[i] = n
		}
	} else {
		cl.Net = cfg.network()
		cl.nets = []*simnet.Network{cl.Net}
	}
	if cfg.Tracer != nil {
		for _, n := range cl.nets {
			n.SetTracer(cfg.Tracer)
		}
		cl.ServerCPU.SetTracer(cfg.Tracer, tracing.LayerCPUServer)
	}

	capacity := cfg.CapacityClients
	if capacity == 0 {
		capacity = cfg.Clients
		for _, co := range cfg.Background {
			capacity += co.Clients
		}
	}

	var serverReady time.Duration
	switch cfg.Kind {
	case ISCSI:
		nluns, arrayCap := cfg.Clients, capacity
		if cfg.Sharing != nil {
			// One extra raw LUN on the same array, exported by every
			// client's target and guarded by one reservation table.
			nluns++
			arrayCap++
		}
		cl.luns = blockdev.NewClusterArraySized(nluns, cfg.DeviceBlocks, arrayCap)
		if cfg.Sharing != nil {
			cl.shared = cl.luns[nluns-1]
			cl.luns = cl.luns[:cfg.Clients]
			cl.rsv = scsi.NewReservations()
		}
		for i, lun := range cl.luns {
			if _, err := ext3.Mkfs(0, lun, ext3.Options{CommitInterval: cfg.CommitInterval}); err != nil {
				return nil, fmt.Errorf("testbed: cluster mkfs lun %d: %w", i, err)
			}
		}
		if cfg.Tracer != nil && len(cl.luns) > 0 {
			// The LUNs partition one shared array; one SetTracer covers it.
			cl.luns[0].RAID().SetTracer(cfg.Tracer)
		}
	default:
		cl.dev = blockdev.NewTestbedArray(cfg.DeviceBlocks)
		if _, err := ext3.Mkfs(0, cl.dev, ext3.Options{CommitInterval: cfg.CommitInterval}); err != nil {
			return nil, fmt.Errorf("testbed: cluster mkfs: %w", err)
		}
		if cfg.Tracer != nil {
			cl.dev.RAID().SetTracer(cfg.Tracer)
		}
		cl.srv = &nfsServer{dev: cl.dev, cpu: cl.ServerCPU, cfg: cfg}
		done, err := cl.srv.mount(0)
		if err != nil {
			return nil, err
		}
		serverReady = done
		if cfg.Sharing != nil {
			// The lock table lives on the protocol server, which
			// survives export restarts; a crash-restart resets it and
			// opens the grace window (see fault.go).
			cl.locks = lockmgr.NewManager(lockmgr.Config{
				LeaseTTL:    cfg.Sharing.LeaseTTL,
				GracePeriod: cfg.Sharing.GracePeriod,
			})
			cl.srv.srv.Locks = cl.locks
			if cfg.Sharing.Delegation {
				cl.deleg = lockmgr.NewDelegations(cfg.Sharing.RecallLatency)
			}
		}
	}

	if len(cfg.Background) > 0 {
		if err := cl.applyFluid(); err != nil {
			return nil, err
		}
	}

	for i := 0; i < cfg.Clients; i++ {
		cpu := sim.NewCPU(1.0)
		if cfg.Tracer != nil {
			cpu.SetTracer(cfg.Tracer, tracing.LayerCPUClient)
		}
		h := hw{net: cl.ClientNetwork(i), cpu: cpu, cfg: cfg}
		var st Stack
		if cfg.Kind == ISCSI {
			name := fmt.Sprintf("iqn.2004.repro:vol%d", i)
			tgt := iscsi.NewTarget(name, cl.luns[i], cl.ServerCPU)
			if cl.rsv != nil {
				tgt.SetShared(cl.shared, cl.rsv, i)
			}
			st = &iscsiStack{hw: h, target: tgt}
		} else {
			ns := &nfsStack{kind: cfg.Kind, hw: h, srv: cl.srv}
			if cfg.Sharing != nil {
				ns.sharing = true
				ns.shareID = i
				ns.deleg = cl.deleg
			}
			st = ns
		}
		c := newClient(i, st)
		c.CPU = cpu
		c.Tracer = cfg.Tracer
		// Clients boot once the server is up; mounts then contend for
		// the shared segment and server CPU in client order.
		c.Clock.AdvanceTo(serverReady)
		if err := c.mount(); err != nil {
			return nil, fmt.Errorf("testbed: cluster client %d: %w", i, err)
		}
		cl.Clients = append(cl.Clients, c)
	}
	cl.rec = cfg.Metrics.With(metrics.Tags{"transport": cfg.Transport.String()})
	cl.instrument()
	cl.attachHealth(cfg.Health)
	return cl, nil
}

// applyFluid solves the background cohorts to their operating point and
// injects the background share of each shared station's utilization into
// the mechanistic resources.
func (cl *Cluster) applyFluid() error {
	// The wire station is whichever pipe the clients actually share: the
	// netqueue bottleneck when configured, else the common segment in
	// homogeneous (single-network) mode. Heterogeneous per-client wires
	// without a bottleneck are private — no shared wire station.
	var linkBps int64
	if cl.Link != nil {
		linkBps = cl.Link.Config().Bandwidth
	} else if cl.Net != nil {
		linkBps = cl.Net.Bandwidth()
	}
	op, err := fleet.Solve(cl.Cfg.Clients, cl.Cfg.Background, linkBps)
	if err != nil {
		return err
	}
	cl.ServerCPU.SetBackground(op.BackgroundUtil[fleet.StationCPU])
	if cl.dev != nil {
		cl.dev.RAID().SetBackground(op.BackgroundUtil[fleet.StationDisk])
	} else if len(cl.luns) > 0 {
		cl.luns[0].RAID().SetBackground(op.BackgroundUtil[fleet.StationDisk])
	}
	switch {
	case cl.Link != nil:
		up := int64(op.BackgroundUtil[fleet.StationUp] * float64(linkBps))
		down := int64(op.BackgroundUtil[fleet.StationDown] * float64(linkBps))
		if err := cl.Link.SetBackground(up, down); err != nil {
			return err
		}
	case cl.Net != nil:
		cl.Net.SetBackground(op.BackgroundUtil[fleet.StationUp],
			op.BackgroundUtil[fleet.StationDown])
	}
	cl.fluid = &op
	return nil
}

// Fluid exposes the solved background operating point (nil when the
// cluster is purely mechanistic).
func (cl *Cluster) Fluid() *fleet.Operating { return cl.fluid }

// DiskBusy reports the shared array's bottleneck-member busy time: the
// disk-station demand a fleet calibration divides per op.
func (cl *Cluster) DiskBusy() time.Duration {
	if cl.dev != nil {
		return cl.dev.RAID().Busy()
	}
	if len(cl.luns) > 0 {
		return cl.luns[0].RAID().Busy()
	}
	return 0
}

// fleetCounters derives the fluid cohorts' cumulative activity at the
// cluster horizon: the closed-form counterpart of a mechanistic client's
// protocol counters. The horizon is monotone, so so are these.
func (cl *Cluster) fleetCounters() map[string]int64 {
	op := cl.fluid
	secs := cl.Horizon().Seconds()
	return map[string]int64{
		"ops":        int64(op.BackgroundX * secs),
		"messages":   int64(op.BackgroundX * op.Demand.MsgsPerOp * secs),
		"data_bytes": int64(op.BackgroundX * op.Demand.DataBytesPerOp * secs),
	}
}

// ClientNetwork returns client i's network (the shared segment when the
// cluster runs in independent-links mode).
func (cl *Cluster) ClientNetwork(i int) *simnet.Network {
	if len(cl.nets) == 1 {
		return cl.nets[0]
	}
	return cl.nets[i]
}

// clientAxisTags returns the straggler-attribution tags for client i's
// metric sources: rtt/loss in heterogeneous (per-client network) mode,
// nil otherwise — so homogeneous streams stay byte-identical.
func (cl *Cluster) clientAxisTags(i int) metrics.Tags {
	if cl.Net != nil {
		return nil
	}
	n := cl.nets[i]
	return metrics.Tags{
		"rtt":  n.RTT().String(),
		"loss": strconv.FormatFloat(n.LossRate(), 'g', -1, 64),
	}
}

// instrument registers the cluster's counter sources: shared hardware
// (bottleneck link and/or segment, array, server CPU), the shared NFS
// server (if any), then each client's stack in client order. In
// heterogeneous mode every client's sources — including its own network
// — carry that client's rtt/loss tags.
func (cl *Cluster) instrument() {
	if cl.Link != nil {
		cl.rec.Register(metrics.SubsysNet, metrics.Tags{"link": "shared"}, cl.Link.Counters)
	}
	if cl.Net != nil {
		cl.rec.Register(metrics.SubsysNet, nil, cl.Net.Counters)
	}
	if cl.dev != nil {
		cl.rec.Register(metrics.SubsysDisk, nil, cl.dev.Counters)
	} else if len(cl.luns) > 0 {
		cl.rec.Register(metrics.SubsysDisk, nil, cl.luns[0].Counters)
	}
	cl.rec.Register(metrics.SubsysCPU, metrics.Tags{"host": "server"}, cl.ServerCPU.Counters)
	if cl.locks != nil {
		cl.rec.Register(metrics.SubsysLock, nil, cl.locks.Counters)
	}
	if cl.deleg != nil {
		cl.rec.Register(metrics.SubsysLease, nil, cl.deleg.Counters)
	}
	if cl.rsv != nil {
		cl.rec.Register(metrics.SubsysLock, metrics.Tags{"proto": "scsi"}, cl.rsv.Counters)
	}
	if cl.fluid != nil {
		cl.rec.Register(metrics.SubsysFleet,
			metrics.Tags{"background": strconv.Itoa(cl.fluid.Background)}, cl.fleetCounters)
	}
	if len(cl.Clients) > 0 {
		registerServerSources(cl.rec, cl.Clients[0].Stack)
	}
	for _, s := range cl.strata() {
		sel := s.members
		var sampleTags metrics.Tags
		if fanIn := cl.fanIn(); fanIn > 0 && len(s.members) > fanIn {
			// Stride-select fanIn clients spread across the stratum, and
			// tag their sources so summaries re-weight counter totals by
			// population/sample (docs/METRICS.md).
			sel = make([]int, fanIn)
			for j := range sel {
				sel[j] = s.members[j*len(s.members)/fanIn]
			}
			sampleTags = metrics.Tags{
				metrics.TagSampled:    "true",
				metrics.TagPopulation: strconv.Itoa(len(s.members)),
				metrics.TagSample:     strconv.Itoa(fanIn),
			}
		}
		for _, i := range sel {
			c := cl.Clients[i]
			extra := cl.clientAxisTags(i)
			if extra == nil && sampleTags != nil {
				extra = metrics.Tags{}
			}
			for k, v := range sampleTags {
				extra[k] = v
			}
			if cl.Net == nil {
				tags := metrics.Tags{"client": strconv.Itoa(c.ID)}
				for k, v := range extra {
					tags[k] = v
				}
				cl.rec.Register(metrics.SubsysNet, tags, cl.nets[i].Counters)
			}
			registerClientSources(cl.rec, c, extra)
		}
	}
}

// fanIn resolves the configured telemetry fan-in: 0 means the default,
// negative means unlimited (no sampling).
func (cl *Cluster) fanIn() int {
	if cl.Cfg.TelemetryFanIn == 0 {
		return DefaultTelemetryFanIn
	}
	return cl.Cfg.TelemetryFanIn
}

// stratum is one telemetry sampling stratum: the clients sharing a
// heterogeneity tag set (rtt/loss), in registration order.
type stratum struct {
	members []int
}

// strata partitions clients by their axis tags, preserving client order
// within and across strata, so stratified sampling covers every
// heterogeneity class rather than whatever a uniform sample happens to
// hit.
func (cl *Cluster) strata() []*stratum {
	out := []*stratum{}
	index := map[string]*stratum{}
	for i := range cl.Clients {
		tags := cl.clientAxisTags(i)
		key := tags["rtt"] + "|" + tags["loss"]
		s, ok := index[key]
		if !ok {
			s = &stratum{}
			index[key] = s
			out = append(out, s)
		}
		s.members = append(s.members, i)
	}
	return out
}

// Metrics exposes the cluster's recorder (nil when un-instrumented).
func (cl *Cluster) Metrics() *metrics.Recorder { return cl.rec }

// Locks exposes the NFS byte-range lock manager (nil unless Sharing is
// enabled on an NFS cluster).
func (cl *Cluster) Locks() *lockmgr.Manager { return cl.locks }

// Delegations exposes the v4 lease table (nil unless Sharing.Delegation
// is enabled on an NFSv4 cluster). The replay oracle test resets it at
// window open and reads its counters at close.
func (cl *Cluster) Delegations() *lockmgr.Delegations { return cl.deleg }

// Reservations exposes the iSCSI persistent-reservation table (nil
// unless Sharing is enabled on an iSCSI cluster).
func (cl *Cluster) Reservations() *scsi.Reservations { return cl.rsv }

// ServerRequests reports the cumulative NFS server request count (0 for
// iSCSI clusters): the message-side counter the delegation oracle
// differences across a measurement window.
func (cl *Cluster) ServerRequests() int64 {
	if cl.srv == nil || cl.srv.srv == nil {
		return 0
	}
	return cl.srv.srv.Counters()["requests"]
}

// EmitSample streams every registered counter's delta since the previous
// sample, stamped at the cluster horizon.
func (cl *Cluster) EmitSample() { cl.rec.Sample(cl.Horizon()) }

// Run interleaves one step function per client (index-aligned with
// Clients) in virtual-time order until every driver finishes. Each step
// issues work at its client's clock and advances it; the scheduler always
// picks the earliest clock, so shared-resource contention is resolved
// deterministically.
func (cl *Cluster) Run(drivers []func() (more bool, err error)) error {
	if len(drivers) != len(cl.Clients) {
		return fmt.Errorf("testbed: %d drivers for %d clients", len(drivers), len(cl.Clients))
	}
	s := sim.NewScheduler()
	// The health scraper (if any) goes first so that on clock ties a
	// scrape observes the instant before tied client work starts. It
	// retires on its own once the drivers finish.
	cl.health.Spawn(s, cl.Horizon())
	for i, d := range drivers {
		s.Spawn(cl.Clients[i].Clock, d)
	}
	return s.Run()
}

// Horizon reports the latest client clock. It iterates the clients
// directly — no per-call clock-slice allocation, since telemetry sampling
// calls this on every emitted event batch.
func (cl *Cluster) Horizon() time.Duration {
	var h time.Duration
	for _, c := range cl.Clients {
		if t := c.Clock.Now(); t > h {
			h = t
		}
	}
	return h
}

// Align advances every client clock to the cluster horizon (the barrier at
// which a cluster-wide measurement window closes) and returns that time.
func (cl *Cluster) Align() time.Duration {
	h := cl.Horizon()
	for _, c := range cl.Clients {
		c.Clock.AdvanceTo(h)
	}
	return h
}

// Drain flushes every client to stable storage and aligns all clocks past
// all background work.
func (cl *Cluster) Drain() error {
	for _, c := range cl.Clients {
		if err := c.Drain(); err != nil {
			return err
		}
	}
	cl.Align()
	return nil
}

// ColdCache empties every cache in the cluster, the protocol the paper
// uses before each cold-cache measurement (Section 4.1): all clients
// drain, the NFS server (if any) restarts exactly once, and every client
// then unmounts and remounts its stack. The quiesced pre-reset counters
// are flushed into a sample first, so the rebuild (which re-zeroes
// protocol clients) can never lose deltas.
func (cl *Cluster) ColdCache() error {
	if err := cl.Drain(); err != nil {
		return err
	}
	cl.EmitSample()
	// Flush a pre-rebuild gauge sample too: the scrape grid would
	// otherwise skip the quiesced instant, and the utilization closures
	// should close their windows on the old instances before the
	// protocol clients are torn down (the gauge analogue of the counter
	// flush above).
	cl.health.Scrape(cl.Horizon())
	if cl.srv != nil {
		done, err := cl.srv.restart(cl.Horizon())
		if err != nil {
			return err
		}
		for _, c := range cl.Clients {
			c.Clock.AdvanceTo(done)
		}
	}
	for _, c := range cl.Clients {
		done, err := c.Stack.ColdCache(c.Clock.Now())
		if err != nil {
			return err
		}
		c.Clock.AdvanceTo(done)
		c.syncFS()
	}
	cl.Align()
	return nil
}

// SetRTT adjusts every client's network latency mid-run (the NISTNet
// knob of Figure 6).
func (cl *Cluster) SetRTT(rtt time.Duration) {
	for _, n := range cl.nets {
		n.SetRTT(rtt)
	}
}

// Snapshot captures every counter for delta measurement.
type Snapshot struct {
	Net                    metrics.NetStats
	Disk                   metrics.DiskStats
	RPC                    sunrpc.Stats
	ClientBusy, ServerBusy time.Duration
	Time                   time.Duration
}

// Delta is the difference between two snapshots: one measurement window.
type Delta struct {
	Messages    int64
	Frames      int64
	Bytes       int64
	Retransmits int64
	DiskOps     int64
	Elapsed     time.Duration
	ClientBusy  time.Duration
	ServerBusy  time.Duration
}

// Snap captures cluster-wide counters: network traffic summed over every
// client link, shared array, server CPU, and the sum of client CPU busy
// time. Time is the cluster horizon. RPC aggregates every NFS client's
// SunRPC counters.
func (cl *Cluster) Snap() Snapshot {
	s := Snapshot{
		ServerBusy: cl.ServerCPU.Busy(),
		Time:       cl.Horizon(),
	}
	for _, n := range cl.nets {
		s.Net.Add(n.Stats())
	}
	if cl.dev != nil {
		s.Disk = cl.dev.Stats()
	} else if len(cl.luns) > 0 {
		s.Disk = cl.luns[0].Stats() // shared array counters
	}
	for _, c := range cl.Clients {
		s.ClientBusy += c.CPU.Busy()
		s.RPC.Add(c.Stack.Counters().RPC)
	}
	return s
}

// Since computes the measurement window from a prior snapshot.
func (cl *Cluster) Since(prev Snapshot) Delta {
	cur := cl.Snap()
	n := cur.Net.Sub(prev.Net)
	d := cur.Disk.Sub(prev.Disk)
	return Delta{
		Messages:    n.Messages,
		Frames:      n.Frames,
		Bytes:       n.Bytes(),
		Retransmits: n.Retransmits,
		DiskOps:     d.Ops(),
		Elapsed:     cur.Time - prev.Time,
		ClientBusy:  cur.ClientBusy - prev.ClientBusy,
		ServerBusy:  cur.ServerBusy - prev.ServerBusy,
	}
}
