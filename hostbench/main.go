// Command hostbench measures how much host time and memory the simulator
// spends on three seeded workloads, and checks that every virtual-time
// result it produces is unchanged. See README.md.
//
// Usage (from the repository root):
//
//	bash hostbench/run.sh --workload datapath|metadata|cluster --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the run adds profiled
// repetitions and a traced one, and the metrics are the per-layer ones.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/tracing"
)

// minReps is the fewest timed repetitions a run makes, however long
// they take, so every reported median has at least three samples.
const minReps = 3

// setupSamples is the fewest set-ups setup_s is the median of; set-up is
// short, so the repetitions alone may measure too few.
const setupSamples = 25

func main() {
	name := flag.String("workload", "", "workload: datapath, metadata or cluster")
	seed := flag.Int64("seed", defaultSeed, "workload seed")
	seconds := flag.Int("seconds", 20, "host seconds of timed repetitions")
	trace := flag.Int("trace", 0, "1: add the traced run and report the per-layer metrics")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	c := runConfig{seed: *seed, sz: fullSizes}
	out, err := measure(w, c, plan{
		timed: time.Duration(*seconds) * time.Second,
		// At the profiler's 100 Hz, enough samples that a 1% share is
		// several of them.
		profiled:  5 * time.Second,
		traced:    *trace == 1,
		committed: committedDigests,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
	out.print(os.Stdout, *trace == 1)
	if out.failed > 0 {
		os.Exit(1)
	}
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// outcome is everything one invocation reports.
type outcome struct {
	workload  string
	seed      int64
	walls     []float64 // each timed repetition's wall_s
	e2e       []metric
	layer     []metric
	attempted int64
	failed    int64
	failures  []string
	digests   []string // "<workload>/<stack>=<digest>"
	host, vt  map[string]float64
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// plan is what one invocation measures.
type plan struct {
	timed    time.Duration // least host time of timed repetitions
	profiled time.Duration // least host time under the CPU profile (traced only)
	traced   bool          // add the profiled and traced repetitions
	// committed holds the digests the default seed must reproduce.
	committed map[string]string
}

// measure runs one warm-up repetition of w, then timed repetitions for
// p.timed (at least minReps of them). With p.traced it adds profiled
// repetitions and one traced repetition of the same seed. Every
// repetition's outputs are checked, and each must reproduce the warm-up's
// digests.
func measure(w workloadDef, c runConfig, p plan) (*outcome, error) {
	o := &outcome{workload: w.name, seed: c.seed}
	// The first repetition in a process pays one-off costs (heap growth,
	// first-touch page faults) that later ones do not, so it is checked
	// but not timed.
	warm, err := runRep(w, c)
	if err != nil {
		return nil, err
	}
	var reps []*rep
	for start := time.Now(); len(reps) < minReps || time.Since(start) < p.timed; {
		r, err := runRep(w, c)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		o.walls = append(o.walls, r.wall.Seconds())
	}
	setups := make([]float64, 0, setupSamples)
	for _, r := range reps {
		setups = append(setups, r.setup.Seconds())
	}
	for len(setups) < setupSamples {
		d, err := setupOnly(w, c)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	o.endToEnd(reps, setups)
	checked := append([]*rep{warm}, reps...)
	if !p.traced {
		o.check(w, c.seed, p.committed, checked)
		return o, nil
	}
	// The profiled repetitions run the timed configuration, so the
	// fold shows where the simulator spends CPU, not where the
	// tracer does.
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	for start := time.Now(); len(checked) == len(reps)+1 || time.Since(start) < p.profiled; {
		r, err := runRep(w, c)
		if err != nil {
			pprof.StopCPUProfile()
			return nil, fmt.Errorf("profiled run: %w", err)
		}
		checked = append(checked, r)
	}
	pprof.StopCPUProfile()
	if o.host, err = hostShares(prof.Bytes()); err != nil {
		return nil, err
	}
	tc := c
	tc.traced = true
	tr, err := runRep(w, tc)
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	checked = append(checked, tr)
	counts, err := modelCounts(tr.events.Bytes())
	if err != nil {
		return nil, fmt.Errorf("recorder stream: %w", err)
	}
	o.check(w, c.seed, p.committed, checked)
	o.perLayer(reps, tr, counts)
	return o, nil
}

// check counts every checked repetition's syscalls and failures, and
// compares digests: every repetition's with the first one's, and the
// first one's with the committed value on the default seed. Each paper
// claim that fails counts once.
func (o *outcome) check(w workloadDef, seed int64, committed map[string]string, reps []*rep) {
	first := reps[0]
	for _, r := range reps {
		o.checkRep(r)
	}
	for i, sr := range first.stacks {
		key := w.name + "/" + sr.kind.Tag()
		d := sr.digest()
		o.digests = append(o.digests, key+"="+d)
		for j, r := range reps[1:] {
			if got := r.stacks[i].digest(); got != d {
				o.fail("%s: repetition %d digest %s differs from the first repetition's %s", key, j+1, got, d)
			}
		}
		if seed == defaultSeed && committed[key] != d {
			o.fail("%s: digest %s differs from the committed %s", key, d, committed[key])
		}
	}
	for _, s := range first.shapes {
		if !s.Pass {
			o.fail("shape check failed: %s (%s)", s.Claim, s.Evidence)
		}
	}
}

// checkRep counts a repetition's syscalls and their failures: syscall
// errors and reads that returned the wrong length or bytes.
func (o *outcome) checkRep(r *rep) {
	for _, sr := range r.stacks {
		o.attempted += sr.log.calls
		if sr.log.errs > 0 {
			o.fail("%s/%s: %d syscalls failed", o.workload, sr.kind.Tag(), sr.log.errs)
		}
		if sr.log.badReads > 0 {
			o.fail("%s/%s: %d reads returned a wrong length or wrong bytes", o.workload, sr.kind.Tag(), sr.log.badReads)
		}
	}
}

// endToEnd computes the end-to-end metrics: medians over repetitions,
// and over every set-up measured.
func (o *outcome) endToEnd(reps []*rep, setups []float64) {
	per := func(f func(r *rep) float64) float64 {
		v := make([]float64, len(reps))
		for i, r := range reps {
			v[i] = f(r)
		}
		return median(v)
	}
	o.e2e = []metric{
		{"wall_s", per(func(r *rep) float64 { return r.wall.Seconds() }), "s"},
		{"sim_ops_per_s", per(func(r *rep) float64 { return float64(r.ops()) / r.wall.Seconds() }), "ops/s"},
		{"alloc_bytes_per_op", per(func(r *rep) float64 { return float64(r.allocBytes) / float64(r.ops()) }), "B/op"},
		{"allocs_per_op", per(func(r *rep) float64 { return float64(r.allocs) / float64(r.ops()) }), "allocs/op"},
		{"live_heap_mb", per(func(r *rep) float64 { return float64(r.liveHeap) / (1 << 20) }), "MB"},
		{"setup_s", median(setups), "s"},
	}
}

// perLayer computes the per-layer metrics: host timings from the timed
// repetitions, shares and model counts from the traced one.
func (o *outcome) perLayer(reps []*rep, tr *rep, counts map[string]int64) {
	m := &o.layer
	add := func(name string, v float64, unit string) { *m = append(*m, metric{name, v, unit}) }
	for i, sr := range reps[0].stacks {
		stack := "testbed." + sr.kind.Tag()
		for op := 0; op < numOps; op++ {
			var ns []float64
			for _, r := range reps {
				for _, x := range r.stacks[i].log.ns[op] {
					ns = append(ns, float64(x))
				}
			}
			sort.Float64s(ns)
			add(stack+"."+opNames[op]+".us_p50", quantile(ns, 0.50)/1e3, "us")
			add(stack+"."+opNames[op]+".us_p99", quantile(ns, 0.99)/1e3, "us")
		}
		stackMedian := func(f func(sr *stackRun) time.Duration) float64 {
			v := make([]float64, len(reps))
			for j, r := range reps {
				v[j] = float64(f(r.stacks[i])) / 1e6
			}
			return median(v)
		}
		add(stack+".new_ms", stackMedian(func(sr *stackRun) time.Duration { return sr.newDur }), "ms")
		add(stack+".coldcache_ms", stackMedian(func(sr *stackRun) time.Duration { return sr.coldDur }), "ms")
		add(stack+".drain_ms", stackMedian(func(sr *stackRun) time.Duration { return sr.drainDur }), "ms")
	}

	sched := make([]float64, len(reps))
	gcCycles := make([]float64, len(reps))
	gcFrac := make([]float64, len(reps))
	for i, r := range reps {
		if r.steps > 0 {
			sched[i] = float64(r.runWall-r.inDriver) / float64(r.steps)
		}
		gcCycles[i] = float64(r.gcCycles)
		gcFrac[i] = r.gcCPUFrac
	}
	add("sim.steps", float64(reps[0].steps), "count")
	add("sim.sched_ns_per_step", median(sched), "ns")
	add("runtime.gc_cycles", median(gcCycles), "count")
	add("runtime.gc_cpu_frac", median(gcFrac), "ratio")
	add("runtime.peak_rss_mb", peakRSSMB(), "MB")

	for _, mod := range hostModules {
		add(mod+".host_share", o.host[mod], "ratio")
	}
	vt := tracing.Attribution{}
	for _, sr := range tr.stacks {
		vt.Add(sr.vt)
	}
	o.vt = map[string]float64{}
	for _, l := range vtLayers {
		if total := vt.Total(); total > 0 {
			o.vt[l] = float64(vt[l]) / float64(total)
		}
		add("vt."+l+".share", o.vt[l], "ratio")
	}
	walls := make([]float64, len(reps))
	for i, r := range reps {
		walls[i] = r.wall.Seconds()
	}
	add("tracing.overhead_frac", tr.wall.Seconds()/median(walls)-1, "ratio")

	for _, c := range countNames {
		add(c.name, float64(counts[c.name]), c.unit)
	}
	for _, sr := range reps[0].stacks {
		var virt time.Duration
		var msgs int64
		for _, p := range sr.phases {
			virt += p.elapsed
			msgs += p.messages
		}
		add("model."+sr.kind.Tag()+".virt_s", virt.Seconds(), "s")
		add("model."+sr.kind.Tag()+".messages", float64(msgs), "count")
	}
	add("model.shape_checks_failed", float64(shapeFailures(reps[0].shapes)), "count")
	add("op_error_frac", o.errorFrac(), "ratio")
}

func shapeFailures(checks []core.ShapeCheck) int {
	n := 0
	for _, s := range checks {
		if !s.Pass {
			n++
		}
	}
	return n
}

// errorFrac is failed syscalls plus failed output checks, per syscall.
func (o *outcome) errorFrac() float64 {
	if o.attempted == 0 {
		return 1
	}
	return float64(o.failed) / float64(o.attempted)
}

// print writes the human-readable report and, last, the JSON line. The
// JSON carries the end-to-end metrics, or with traced the per-layer ones.
func (o *outcome) print(w io.Writer, traced bool) {
	fmt.Fprintf(w, "hostbench %s seed=%d timed_reps=%d\n", o.workload, o.seed, len(o.walls))
	for _, d := range o.digests {
		fmt.Fprintf(w, "digest %s\n", d)
	}
	fmt.Fprintf(w, "timed repetitions, wall_s:")
	for _, r := range o.walls {
		fmt.Fprintf(w, " %.4f", r)
	}
	fmt.Fprintln(w)
	for _, f := range o.failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	all := append([]metric{}, o.e2e...)
	if !traced {
		all = append(all, metric{"op_error_frac", o.errorFrac(), "ratio"})
	}
	all = append(all, o.layer...)
	for _, m := range all {
		fmt.Fprintf(w, "%-36s %16.6f %s\n", m.name, m.value, m.unit)
	}
	if traced {
		fmt.Fprintf(w, "\n%-10s %10s   %-10s %10s\n", "module", "host_share", "vt layer", "vt_share")
		for i := 0; i < len(hostModules) || i < len(vtLayers); i++ {
			var l, r string
			if i < len(hostModules) {
				l = fmt.Sprintf("%-10s %10.4f", hostModules[i], o.host[hostModules[i]])
			} else {
				l = fmt.Sprintf("%21s", "")
			}
			if i < len(vtLayers) {
				r = fmt.Sprintf("%-10s %10.4f", vtLayers[i], o.vt[vtLayers[i]])
			}
			fmt.Fprintf(w, "%s   %s\n", l, r)
		}
	}

	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := o.e2e
	if traced {
		ms = o.layer
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, map[string]val{}}
	for _, m := range ms {
		out.Metrics[m.name] = val{m.value, m.unit}
	}
	b, _ := json.Marshal(out) // plain structs of finite floats: cannot fail
	fmt.Fprintf(w, "%s\n", b)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of sorted values (0 if empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
