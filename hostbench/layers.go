package main

import (
	"bytes"
	"fmt"

	"repro/internal/metrics"
	"repro/internal/tracing"
)

// vtLayers are the tracing layers whose critical-path share is reported.
var vtLayers = []string{
	tracing.LayerSyscall, tracing.LayerCache, tracing.LayerRPC, tracing.LayerISCSI,
	tracing.LayerTCP, tracing.LayerLink, tracing.LayerQueue,
	tracing.LayerCPUClient, tracing.LayerCPUServer, tracing.LayerDisk,
}

// foldSpans bills every committed operation's virtual time to layers with
// tracing.CriticalPath, adds it to into, and empties the tracer. The
// tracer commits one whole operation at a time, so each root's tree is the
// run of spans from it to the next root; attributing each tree over its
// own spans keeps the fold linear in the span count.
func foldSpans(tr *tracing.Tracer, into tracing.Attribution) error {
	spans := tr.Spans()
	for lo := 0; lo < len(spans); {
		if spans[lo].Parent != 0 {
			return fmt.Errorf("span %d: tree does not start at a root", spans[lo].ID)
		}
		hi := lo + 1
		for hi < len(spans) && spans[hi].Parent != 0 {
			hi++
		}
		a, err := tracing.CriticalPath(spans[lo:hi], spans[lo].ID)
		if err != nil {
			return err
		}
		into.Add(a)
		lo = hi
	}
	tr.Reset()
	return nil
}

// countNames are the model work counts, in report order, with their units.
var countNames = []struct{ name, unit string }{
	{"simnet.messages", "count"}, {"simnet.bytes", "B"}, {"simnet.retransmits", "count"},
	{"netqueue.queue_drops", "count"}, {"netqueue.hol_wait_ns", "ns"},
	{"tcpsim.segments", "count"}, {"tcpsim.retransmits", "count"},
	{"sunrpc.calls", "count"}, {"sunrpc.slot_waits", "count"},
	{"iscsi.commands", "count"}, {"nfs.requests", "count"},
	{"ext3.cache_hits", "count"}, {"ext3.cache_misses", "count"},
	{"ext3.cache_evictions", "count"}, {"ext3.journal_commits", "count"},
	{"simdisk.reads", "count"}, {"simdisk.writes", "count"}, {"simdisk.busy_ns", "ns"},
	{"sim.cpu_busy_ns.client", "ns"}, {"sim.cpu_busy_ns.server", "ns"},
}

// modelCounts sums the recorder's counter samples (docs/METRICS.md) into
// the model work counts, over both stacks. They are virtual-model outputs
// and repeat exactly for a seed.
func modelCounts(stream []byte) (map[string]int64, error) {
	events, err := metrics.ReadEvents(bytes.NewReader(stream))
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(countNames))
	for _, e := range events {
		if e.Kind != metrics.KindSample {
			continue
		}
		k := e.Counters
		switch e.Subsys {
		case metrics.SubsysNet:
			if e.Tags["link"] == "shared" {
				out["netqueue.queue_drops"] += k["up_queue_drops"] + k["down_queue_drops"]
				out["netqueue.hol_wait_ns"] += k["up_hol_wait_ns"] + k["down_hol_wait_ns"]
				continue
			}
			out["simnet.messages"] += k["messages"]
			out["simnet.bytes"] += k["bytes_sent"] + k["bytes_recv"]
			out["simnet.retransmits"] += k["retransmits"]
		case metrics.SubsysTCP:
			out["tcpsim.segments"] += k["segments"]
			out["tcpsim.retransmits"] += k["retransmits"]
		case metrics.SubsysRPC:
			out["sunrpc.calls"] += k["calls"]
			out["sunrpc.slot_waits"] += k["slot_waits"]
		case metrics.SubsysISCSI:
			out["iscsi.commands"] += k["commands"]
		case metrics.SubsysNFS:
			out["nfs.requests"] += k["requests"]
		case metrics.SubsysExt3:
			for _, c := range []string{"cache_hits", "cache_misses", "cache_evictions", "journal_commits"} {
				out["ext3."+c] += k[c]
			}
		case metrics.SubsysDisk:
			out["simdisk.reads"] += k["reads"]
			out["simdisk.writes"] += k["writes"]
			out["simdisk.busy_ns"] += k["busy_ns"]
		case metrics.SubsysCPU:
			out["sim.cpu_busy_ns."+e.Tags["host"]] += k["busy_ns"]
		}
	}
	return out, nil
}
