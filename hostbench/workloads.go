package main

import (
	"bytes"
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netqueue"
	"repro/internal/testbed"
	"repro/internal/tracing"
	"repro/internal/workload"
)

// sizes scales the three workloads. fullSizes is what the benchmark
// measures; the self-test runs the same code at tinySizes.
type sizes struct {
	fileSize     int64 // datapath: each file a write phase lays down
	pmFiles      int   // metadata: PostMark's initial pool, one flat directory
	pmTxns       int   // metadata: PostMark transactions
	clients      int   // cluster: client machines
	clientFile   int64 // cluster: each client's own file
	serverCache  int   // cluster: server cache, 4 KB blocks
	exportBlocks int64 // cluster: NFS export or per-client LUN, 4 KB blocks
}

var fullSizes = sizes{
	fileSize:     64 << 20,
	pmFiles:      5000,
	pmTxns:       10000,
	clients:      16,
	clientFile:   8 << 20,
	serverCache:  8192,  // 32 MB: a quarter of the 128 MB working set
	exportBlocks: 65536, // 32768 runs out of space under 128 MB of files
}

var tinySizes = sizes{
	fileSize:     4 << 20, // at 1 MB, sequential writes coalesce too little for Table 4's claims
	pmFiles:      100,
	pmTxns:       200,
	clients:      4,
	clientFile:   1 << 20,
	serverCache:  256,
	exportBlocks: 16384,
}

// kinds are the two stacks every workload runs, in report order.
var kinds = []testbed.Kind{testbed.NFSv3, testbed.ISCSI}

// The patterns workload.SequentialWriteSteps and RandomWriteSteps lay
// down; a later read phase must return exactly these bytes.
const (
	seqFill  = 0x5A
	randFill = 0xA5
)

const chunkSize = 4096

// runConfig is one repetition's inputs.
type runConfig struct {
	seed int64
	sz   sizes
	// traced attaches a tracing.Tracer and a metrics.Recorder to every
	// stack (the traced run); the timed runs leave both nil.
	traced bool
	// wrap, when non-nil, sits between each stack and the timed wrapper
	// its driver receives; the self-test corrupts reads through it.
	wrap func(workload.Ops) workload.Ops
}

// bed is what a phase needs from a testbed.Testbed or a testbed.Cluster.
type bed interface {
	Drain() error
	ColdCache() error
	Snap() testbed.Snapshot
	EmitSample()
}

// phase is one measured window on one stack, read from Snap at its
// boundaries. These are virtual-time model outputs: they go into the
// digest, never into a host-cost metric.
type phase struct {
	name     string
	elapsed  time.Duration
	messages int64
	diskOps  int64
	rpcCalls int64
}

// stackRun is one stack's share of a repetition.
type stackRun struct {
	kind   testbed.Kind
	bed    bed
	log    opLog
	phases []phase

	newDur, coldDur, drainDur time.Duration

	tracer *tracing.Tracer     // traced run only
	vt     tracing.Attribution // traced run only
}

// ops returns the timed syscall surface a driver on this stack receives.
func (sr *stackRun) ops(inner workload.Ops, c runConfig) *timedOps {
	if c.wrap != nil {
		inner = c.wrap(inner)
	}
	return &timedOps{inner: inner, log: &sr.log}
}

// runPhase runs one measured window: the driver, then Drain, then the
// virtual-time delta. On a traced stack it also flushes the recorder and
// folds the window's spans.
func (sr *stackRun) runPhase(name string, run func() error) error {
	before := sr.bed.Snap()
	if err := run(); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	t0 := time.Now()
	err := sr.bed.Drain()
	sr.drainDur += time.Since(t0)
	if err != nil {
		return fmt.Errorf("%s drain: %w", name, err)
	}
	after := sr.bed.Snap()
	sr.phases = append(sr.phases, phase{
		name:     name,
		elapsed:  after.Time - before.Time,
		messages: after.Net.Messages - before.Net.Messages,
		diskOps:  after.Disk.Ops() - before.Disk.Ops(),
		rpcCalls: after.RPC.Calls - before.RPC.Calls,
	})
	sr.bed.EmitSample()
	return foldSpans(sr.tracer, sr.vt)
}

func (sr *stackRun) coldCache() error {
	t0 := time.Now()
	err := sr.bed.ColdCache()
	sr.coldDur += time.Since(t0)
	return err
}

// result converts a phase to the row type the core shape checks read.
func (sr *stackRun) result(name string) workload.Result {
	for _, p := range sr.phases {
		if p.name == name {
			return workload.Result{Name: p.name, Stack: sr.kind.String(),
				Elapsed: p.elapsed, Messages: p.messages}
		}
	}
	return workload.Result{}
}

// rep is one repetition of a workload: every stack built, then every
// stack's phases run back to back.
type rep struct {
	stacks []*stackRun

	setup, wall        time.Duration
	allocBytes, allocs uint64
	gcCycles           uint32
	gcCPUFrac          float64
	liveHeap           uint64

	steps    int64         // cluster scheduler steps
	runWall  time.Duration // host time inside Cluster.Run
	inDriver time.Duration // host time inside the drivers Cluster.Run called

	shapes []core.ShapeCheck
	events bytes.Buffer // traced run: the recorder's JSONL stream
}

// workloadDef is one benchmark workload: how to build a stack, what to
// run on it, and which paper claims its results must satisfy.
type workloadDef struct {
	name   string
	build  func(k testbed.Kind, c runConfig, rec *metrics.Recorder, tr *tracing.Tracer) (bed, error)
	run    func(sr *stackRun, c runConfig, r *rep) error
	shapes func(nfs, iscsi *stackRun, c runConfig) []core.ShapeCheck
}

var workloads = []workloadDef{
	{"datapath", buildBed, runDatapath, datapathShapes},
	{"metadata", buildBed, runMetadata, metadataShapes},
	{"cluster", buildCluster, runCluster, nil},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// buildBed is the datapath and metadata testbed: one client, one server,
// the fluid wire, the paper's default caches and volume.
func buildBed(k testbed.Kind, c runConfig, rec *metrics.Recorder, tr *tracing.Tracer) (bed, error) {
	return testbed.New(testbed.Config{Kind: k, Seed: c.seed, Metrics: rec, Tracer: tr})
}

// buildCluster is the cluster testbed: every client over TCP through one
// shared bottleneck, iSCSI with two-connection MC/S, and a server cache a
// quarter of the working set.
func buildCluster(k testbed.Kind, c runConfig, rec *metrics.Recorder, tr *tracing.Tracer) (bed, error) {
	cfg := testbed.ClusterConfig{
		Kind:              k,
		Clients:           c.sz.clients,
		DeviceBlocks:      c.sz.exportBlocks,
		ServerCacheBlocks: c.sz.serverCache,
		Seed:              c.seed,
		Transport:         testbed.TransportTCP,
		Shared:            &netqueue.Config{},
		Metrics:           rec,
		Tracer:            tr,
	}
	if k == testbed.ISCSI {
		cfg.Conns = 2
	}
	return testbed.NewCluster(cfg)
}

// runDatapath is the Table 4 shape: sequential write, then sequential
// read, random write and random read, each starting cold. As in the
// paper's protocol, each write phase creates its own file and the read
// phase after it reads that file back.
func runDatapath(sr *stackRun, c runConfig, _ *rep) error {
	cfg := workload.SeqRandConfig{FileSize: c.sz.fileSize, ChunkSize: chunkSize, Seed: c.seed}
	ops := sr.ops(sr.bed.(*testbed.Testbed), c)
	seq, rnd := pattern(seqFill), pattern(randFill)
	phases := []struct {
		name, path string
		steps      func(workload.Ops, string, workload.SeqRandConfig) workload.Steps
		want       []byte
	}{
		{"seq-write", "/seq.dat", workload.SequentialWriteSteps, nil},
		{"seq-read", "/seq.dat", workload.SequentialReadSteps, seq},
		{"rand-write", "/rand.dat", workload.RandomWriteSteps, nil},
		{"rand-read", "/rand.dat", workload.RandomReadSteps, rnd},
	}
	for i, p := range phases {
		if i > 0 {
			if err := sr.coldCache(); err != nil {
				return err
			}
		}
		ops.want = p.want
		s := p.steps(ops, p.path, cfg)
		if err := sr.runPhase(p.name, func() error { return workload.RunSteps(s) }); err != nil {
			return err
		}
	}
	return nil
}

func datapathShapes(nfs, iscsi *stackRun, _ runConfig) []core.ShapeCheck {
	var rows []core.Table4Row
	for _, r := range []struct{ phase, row string }{
		{"seq-read", "Sequential reads"},
		{"rand-read", "Random reads"},
		{"seq-write", "Sequential writes"},
		{"rand-write", "Random writes"},
	} {
		rows = append(rows, core.Table4Row{Workload: r.row, NFS: nfs.result(r.phase), ISCSI: iscsi.result(r.phase)})
	}
	return core.CheckTable4Shapes(rows)
}

// runMetadata is the Table 5 shape: PostMark over a flat pool.
func runMetadata(sr *stackRun, c runConfig, _ *rep) error {
	cfg := workload.DefaultPostMark(c.sz.pmFiles)
	cfg.Transactions = c.sz.pmTxns
	cfg.Seed = c.seed
	s, _, err := workload.PostMarkSteps(sr.ops(sr.bed.(*testbed.Testbed), c), cfg)
	if err != nil {
		return err
	}
	return sr.runPhase("postmark", func() error { return workload.RunSteps(s) })
}

func metadataShapes(nfs, iscsi *stackRun, c runConfig) []core.ShapeCheck {
	return core.CheckTable5Shapes([]core.Table5Row{{
		Files: c.sz.pmFiles, NFS: nfs.result("postmark"), ISCSI: iscsi.result("postmark"),
	}})
}

// runCluster has every client write its own file sequentially, then,
// after one cluster-wide cold-cache, read it back in random order.
func runCluster(sr *stackRun, c runConfig, r *rep) error {
	cl := sr.bed.(*testbed.Cluster)
	n := len(cl.Clients)
	ops := make([]*timedOps, n)
	cfgs := make([]workload.SeqRandConfig, n)
	for i, client := range cl.Clients {
		ops[i] = sr.ops(client, c)
		cfgs[i] = workload.SeqRandConfig{FileSize: c.sz.clientFile, ChunkSize: chunkSize,
			Seed: c.seed*int64(n) + int64(i)}
	}
	phase := func(name string, mk func(workload.Ops, string, workload.SeqRandConfig) workload.Steps, want []byte) error {
		steps := make([]workload.Steps, n)
		for i := range steps {
			ops[i].want = want
			steps[i] = mk(ops[i], fmt.Sprintf("/c%d.dat", i), cfgs[i])
		}
		return sr.runPhase(name, func() error { return r.schedule(cl, steps) })
	}
	if err := phase("seq-write", workload.SequentialWriteSteps, nil); err != nil {
		return err
	}
	if err := sr.coldCache(); err != nil {
		return err
	}
	return phase("rand-read", workload.RandomReadSteps, pattern(seqFill))
}

// schedule runs the drivers under Cluster.Run. It times Cluster.Run and,
// separately, the drivers it calls, so the scheduler's own cost per step
// is the difference.
func (r *rep) schedule(cl *testbed.Cluster, steps []workload.Steps) error {
	ds := make([]func() (bool, error), len(steps))
	for i, s := range steps {
		s := s
		ds[i] = func() (bool, error) {
			t0 := time.Now()
			more, err := s()
			r.inDriver += time.Since(t0)
			r.steps++
			return more, err
		}
	}
	t0 := time.Now()
	err := cl.Run(ds)
	r.runWall += time.Since(t0)
	return err
}

func pattern(fill byte) []byte { return bytes.Repeat([]byte{fill}, chunkSize) }

// runRep builds every stack, then runs every stack's phases under the
// host clock and the allocator's counters.
func runRep(w workloadDef, c runConfig) (*rep, error) {
	// Start every repetition from the same empty heap, so each one pays
	// the same garbage-collector ramp rather than whatever the previous
	// repetition left.
	runtime.GC()
	r := &rep{}
	sink := metrics.NewSink(nil)
	if c.traced {
		sink = metrics.NewSink(&r.events)
	}
	for _, k := range kinds {
		sr := &stackRun{kind: k}
		var rec *metrics.Recorder
		if c.traced {
			sr.tracer = tracing.New(tracing.Config{})
			sr.vt = tracing.Attribution{}
			rec = metrics.NewRecorder(sink, metrics.Tags{"stack": k.Tag()})
		}
		t0 := time.Now()
		b, err := w.build(k, c, rec, sr.tracer)
		sr.newDur = time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("%s: build %s: %w", w.name, k.Tag(), err)
		}
		r.setup += sr.newDur
		sr.bed = b
		r.stacks = append(r.stacks, sr)
	}

	var m0, m1, m2 runtime.MemStats
	gc0, total0 := gcCPUSeconds()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for _, sr := range r.stacks {
		if err := w.run(sr, c, r); err != nil {
			return nil, fmt.Errorf("%s on %s: %w", w.name, sr.kind.Tag(), err)
		}
	}
	r.wall = time.Since(t0)
	runtime.ReadMemStats(&m1)
	gc1, total1 := gcCPUSeconds()
	r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	r.allocs = m1.Mallocs - m0.Mallocs
	r.gcCycles = m1.NumGC - m0.NumGC
	if total1 > total0 {
		r.gcCPUFrac = (gc1 - gc0) / (total1 - total0)
	}
	runtime.GC()
	runtime.ReadMemStats(&m2)
	r.liveHeap = m2.HeapAlloc
	runtime.KeepAlive(r.stacks)

	if w.shapes != nil {
		r.shapes = w.shapes(r.stacks[0], r.stacks[1], c)
	}
	// The stacks are measured; let the next repetition start from an
	// empty heap.
	for _, sr := range r.stacks {
		sr.bed, sr.tracer = nil, nil
	}
	return r, sink.Err()
}

// setupOnly builds every stack of w, as a repetition does (from an empty
// heap), and drops them.
func setupOnly(w workloadDef, c runConfig) (time.Duration, error) {
	runtime.GC()
	var total time.Duration
	for _, k := range kinds {
		t0 := time.Now()
		_, err := w.build(k, c, nil, nil)
		total += time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("%s: build %s: %w", w.name, k.Tag(), err)
		}
	}
	return total, nil
}

// gcCPUSeconds reads the runtime's estimate of GC CPU time and of all CPU
// time available to the process.
func gcCPUSeconds() (gc, total float64) {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// ops counts the simulated syscalls of a repetition.
func (r *rep) ops() int64 {
	var n int64
	for _, sr := range r.stacks {
		n += sr.log.calls
	}
	return n
}
