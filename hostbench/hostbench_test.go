package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// The self-test runs every workload at tinySizes: the same code paths as
// the benchmark, in a fraction of a second each.

// quick is a plan of minimal length: minReps timed repetitions and one
// profiled one.
func quick(traced bool, committed map[string]string) plan {
	return plan{timed: time.Nanosecond, profiled: time.Nanosecond, traced: traced, committed: committed}
}

// tinyDigests measures the digests the default seed yields at tinySizes.
func tinyDigests(t *testing.T, w workloadDef) map[string]string {
	t.Helper()
	r, err := runRep(w, runConfig{seed: defaultSeed, sz: tinySizes})
	if err != nil {
		t.Fatal(err)
	}
	d := map[string]string{}
	for _, sr := range r.stacks {
		d[w.name+"/"+sr.kind.Tag()] = sr.digest()
	}
	return d
}

func run(t *testing.T, w workloadDef, c runConfig, p plan) (*outcome, string) {
	t.Helper()
	o, err := measure(w, c, p)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	o.print(&b, p.traced)
	return o, b.String()
}

// lastJSON decodes the report's last line, the machine-readable result.
func lastJSON(t *testing.T, out string) map[string]any {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var v map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &v); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	return v
}

// contract reads the metric names and units BENCHMARK.json declares.
func contract(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

// TestEveryMetricPrinted checks, on every workload, that each metric
// BENCHMARK.json names is printed on its own line with its unit, that the
// JSON line carries exactly the declared set for the mode, and that a
// clean run reports no failure.
func TestEveryMetricPrinted(t *testing.T) {
	e2e, layer := contract(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			c := runConfig{seed: defaultSeed, sz: tinySizes}
			for _, traced := range []bool{false, true} {
				o, out := run(t, w, c, quick(traced, tinyDigests(t, w)))
				if o.failed != 0 {
					t.Fatalf("traced=%v: clean run failed: %v", traced, o.failures)
				}
				want := e2e
				if traced {
					want = layer
					for name, unit := range e2e {
						printed := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` +\S+ ` + regexp.QuoteMeta(unit) + `$`)
						if !printed.MatchString(out) {
							t.Errorf("traced run does not print %s [%s]", name, unit)
						}
					}
				}
				got := lastJSON(t, out)["metrics"].(map[string]any)
				if len(got) != len(want) {
					t.Errorf("traced=%v: JSON has %d metrics, BENCHMARK.json declares %d", traced, len(got), len(want))
				}
				for name, unit := range want {
					printed := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` +\S+ ` + regexp.QuoteMeta(unit) + `$`)
					if !printed.MatchString(out) {
						t.Errorf("traced=%v: %s [%s] not printed", traced, name, unit)
					}
					m, ok := got[name].(map[string]any)
					if !ok || m["unit"] != unit {
						t.Errorf("traced=%v: JSON lacks %s [%s]: %v", traced, name, unit, got[name])
					}
				}
			}
		})
	}
}

// TestCorruptDigestFails: a committed digest that does not match fails
// the run, in the JSON and in op_error_frac.
func TestCorruptDigestFails(t *testing.T) {
	w, _ := findWorkload("datapath")
	committed := tinyDigests(t, w)
	committed["datapath/iscsi"] = "0000000000000000"
	o, out := run(t, w, runConfig{seed: defaultSeed, sz: tinySizes}, quick(false, committed))
	if o.failed != 1 || lastJSON(t, out)["correct"] != false || o.errorFrac() <= 0 {
		t.Fatalf("corrupted digest not reported: failed=%d %v", o.failed, o.failures)
	}
}

// flipOps flips one byte of the n-th read's result.
type flipOps struct {
	workload.Ops
	reads, n *int
}

func (f flipOps) ReadFileAt(file vfs.File, off int64, buf []byte) (int, error) {
	n, err := f.Ops.ReadFileAt(file, off, buf)
	if *f.reads++; *f.reads == *f.n {
		buf[len(buf)/2] ^= 0xFF
	}
	return n, err
}

// TestFlippedReadByteFails: a read returning one wrong byte fails the
// run, on the data path and in the cluster.
func TestFlippedReadByteFails(t *testing.T) {
	for _, name := range []string{"datapath", "cluster"} {
		w, _ := findWorkload(name)
		reads, at := 0, 5
		c := runConfig{seed: defaultSeed, sz: tinySizes,
			wrap: func(o workload.Ops) workload.Ops { return flipOps{o, &reads, &at} }}
		o, err := measure(w, c, quick(false, tinyDigests(t, w)))
		if err != nil {
			t.Fatal(err)
		}
		if o.failed != 1 || !strings.Contains(fmt.Sprint(o.failures), "wrong length or wrong bytes") {
			t.Fatalf("%s: flipped byte not reported: failed=%d %v", name, o.failed, o.failures)
		}
	}
}

// TestFailedShapeCheckFails: a paper claim that does not hold fails the
// run and is counted in model.shape_checks_failed.
func TestFailedShapeCheckFails(t *testing.T) {
	w, _ := findWorkload("metadata")
	committed := tinyDigests(t, w)
	w.shapes = func(_, _ *stackRun, _ runConfig) []core.ShapeCheck {
		return []core.ShapeCheck{{Claim: "always fails", Pass: false}}
	}
	o, out := run(t, w, runConfig{seed: defaultSeed, sz: tinySizes}, quick(true, committed))
	if o.failed != 1 || lastJSON(t, out)["correct"] != false {
		t.Fatalf("failed shape check not reported: failed=%d %v", o.failed, o.failures)
	}
	if !strings.Contains(out, "\nmodel.shape_checks_failed") ||
		!regexp.MustCompile(`(?m)^model\.shape_checks_failed +1\.0+ count$`).MatchString(out) {
		t.Fatalf("model.shape_checks_failed is not 1:\n%s", out)
	}
}

// TestTracedDigestsAgree: on a seed other than the committed one, the
// profiled and traced repetitions reproduce the timed digests exactly,
// and the fold bills every profile sample somewhere.
func TestTracedDigestsAgree(t *testing.T) {
	for _, w := range workloads {
		o, _ := run(t, w, runConfig{seed: 7, sz: tinySizes}, quick(true, nil))
		if o.failed != 0 {
			t.Errorf("%s seed 7: %v", w.name, o.failures)
		}
		var sum float64
		for _, s := range o.host {
			sum += s
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: host shares sum to %v", w.name, sum)
		}
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/ext3.(*FS).allocBlock":         "ext3",
		"repro/internal/ext3.direntScan":               "ext3",
		"repro/internal/testbed.(*Cluster).Run.func1":  "testbed",
		"runtime.memmove":                              "",
		"main.(*timedOps).ReadFileAt":                  "",
		"repro/internal/sim.(*Scheduler).Run":          "sim",
		"repro/internal/nfs.(*pageCache).dropFile":     "nfs",
		"repro/internal/simdisk.(*RAID5).Submit.func2": "simdisk",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
