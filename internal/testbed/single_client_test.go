package testbed_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/testbed"
	"repro/internal/workload"
)

// TestSingleClientGolden pins the single-client harness the paper's
// tables run on: for every stack, wire model and loss rate it drives a
// mount plus five measured phases (sequential and random writes and
// reads, then PostMark), cold-caching after each, and records the full
// Snapshot on both sides of every ColdCache. Any drift in construction,
// draining, cold-cache or counter plumbing shows up as a diff against
// testdata/single_client.golden (regenerate with -update).
func TestSingleClientGolden(t *testing.T) {
	var sb strings.Builder
	for _, k := range testbed.AllKinds {
		for _, tr := range []testbed.Transport{testbed.TransportFluid, testbed.TransportUDP, testbed.TransportTCP} {
			if k == testbed.ISCSI && tr == testbed.TransportUDP {
				continue
			}
			for _, loss := range []float64{0, 0.01} {
				fmt.Fprintf(&sb, "== %s %s loss=%g\n", k.Tag(), tr, loss)
				if err := recordSingleClient(&sb, testbed.Config{
					Kind: k, Transport: tr, LossRate: loss, DeviceBlocks: 65536, Seed: 3,
				}); err != nil {
					t.Fatalf("%s %s loss=%g: %v", k.Tag(), tr, loss, err)
				}
			}
		}
	}
	path := filepath.Join("testdata", "single_client.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./internal/testbed -run SingleClientGolden -update)", err)
	}
	if got := sb.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("single-client snapshots drifted at line %d:\ngot:  %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("single-client snapshots drifted: %d lines, want %d", len(gl), len(wl))
	}
}

// recordSingleClient runs one configuration's phases and appends one
// Snapshot line per phase boundary to sb.
func recordSingleClient(sb *strings.Builder, cfg testbed.Config) error {
	tb, err := testbed.New(cfg)
	if err != nil {
		return err
	}
	snap := func(label string) { fmt.Fprintf(sb, "%-18s %+v\n", label, tb.Snap()) }
	snap("mount")
	sr := workload.SeqRandConfig{FileSize: 1 << 20, ChunkSize: 4096, Seed: 5}
	pm := workload.DefaultPostMark(40)
	pm.Transactions = 120
	phases := []struct {
		name  string
		steps func() (workload.Steps, error)
	}{
		{"seq-write", func() (workload.Steps, error) { return workload.SequentialWriteSteps(tb, "/seq.dat", sr), nil }},
		{"seq-read", func() (workload.Steps, error) { return workload.SequentialReadSteps(tb, "/seq.dat", sr), nil }},
		{"rand-write", func() (workload.Steps, error) { return workload.RandomWriteSteps(tb, "/rand.dat", sr), nil }},
		{"rand-read", func() (workload.Steps, error) { return workload.RandomReadSteps(tb, "/rand.dat", sr), nil }},
		{"postmark", func() (workload.Steps, error) {
			s, _, err := workload.PostMarkSteps(tb, pm)
			return s, err
		}},
	}
	for _, p := range phases {
		s, err := p.steps()
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		if err := workload.RunSteps(s); err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		snap(p.name + " end")
		if err := tb.ColdCache(); err != nil {
			return fmt.Errorf("%s cold cache: %w", p.name, err)
		}
		snap(p.name + " cold")
	}
	return nil
}
