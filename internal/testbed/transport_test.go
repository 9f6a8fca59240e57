package testbed

import (
	"bytes"
	"testing"
	"time"
)

// mkTCP builds a testbed on the virtual-time TCP transport.
func mkTCP(t *testing.T, k Kind, conns int) *Testbed {
	t.Helper()
	tb, err := New(Config{
		Kind:         k,
		DeviceBlocks: 16384,
		Transport:    TransportTCP,
		Conns:        conns,
		Seed:         7,
	})
	if err != nil {
		t.Fatalf("testbed(%v, tcp x%d): %v", k, conns, err)
	}
	return tb
}

// TestTCPTransportBasicOpsAllStacks runs the create/write/read/readback
// cycle on every stack over tcpsim connections.
func TestTCPTransportBasicOpsAllStacks(t *testing.T) {
	for _, k := range AllKinds {
		tb := mkTCP(t, k, 1)
		if err := tb.Mkdir("/d"); err != nil {
			t.Fatalf("%v mkdir: %v", k, err)
		}
		payload := bytes.Repeat([]byte{0xAB}, 64<<10)
		if err := tb.WriteFile("/d/f", payload); err != nil {
			t.Fatalf("%v write: %v", k, err)
		}
		if err := tb.ColdCache(); err != nil {
			t.Fatalf("%v coldcache: %v", k, err)
		}
		got, err := tb.ReadFile("/d/f")
		if err != nil {
			t.Fatalf("%v read: %v", k, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("%v read-back mismatch over TCP transport", k)
		}
		if tb.Client.Stack.Counters().TCP.Segments == 0 {
			t.Fatalf("%v ran no TCP segments under TransportTCP", k)
		}
	}
}

// TestTransportValidation rejects arrangements no deployment has.
func TestTransportValidation(t *testing.T) {
	if _, err := New(Config{Kind: ISCSI, Transport: TransportUDP}); err == nil {
		t.Fatal("iSCSI over UDP accepted")
	}
	if _, err := New(Config{Kind: NFSv3, Transport: TransportTCP, Conns: 4}); err == nil {
		t.Fatal("NFS MC/S accepted")
	}
	if _, err := New(Config{Kind: ISCSI, Transport: TransportFluid, Conns: 4}); err == nil {
		t.Fatal("fluid MC/S accepted")
	}
	if _, err := NewCluster(Config{Kind: ISCSI, Clients: 2, Transport: TransportUDP}); err == nil {
		t.Fatal("cluster iSCSI over UDP accepted")
	}
}

// TestNFSUDPTransportForced: TransportUDP pins even v3/v4 to datagram RPC
// (the paper's Linux client ran v3 over UDP).
func TestNFSUDPTransportForced(t *testing.T) {
	tb, err := New(Config{Kind: NFSv3, DeviceBlocks: 16384, Transport: TransportUDP, LossRate: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.WriteFile("/f", make([]byte, 64<<10)); err != nil {
		t.Fatalf("write under loss: %v", err)
	}
	if err := tb.Drain(); err != nil {
		t.Fatal(err)
	}
	if tb.RPC().Stats().Retransmits == 0 {
		t.Fatal("5% frame loss on the UDP transport produced no RPC retransmissions")
	}
	if tb.Client.Stack.Counters().TCP.Segments != 0 {
		t.Fatal("UDP transport sent TCP segments")
	}
}

// TestSessionExportedOnTestbed: the MC/S session is reachable for
// experiment code and the fluid initiator is not built.
func TestSessionExportedOnTestbed(t *testing.T) {
	tb := mkTCP(t, ISCSI, 4)
	if tb.Session() == nil || tb.Initiator() != nil {
		t.Fatalf("session=%v initiator=%v, want session-only", tb.Session(), tb.Initiator())
	}
	if tb.Session().Conns() != 4 {
		t.Fatalf("conns = %d", tb.Session().Conns())
	}
}

// TestTCPClusterRuns: N clients over TCP transports share one server.
func TestTCPClusterRuns(t *testing.T) {
	cl, err := NewCluster(Config{
		Kind:         ISCSI,
		Clients:      3,
		DeviceBlocks: 16384,
		Transport:    TransportTCP,
		Conns:        2,
		Seed:         11,
	})
	if err != nil {
		t.Fatal(err)
	}
	drivers := make([]func() (bool, error), 3)
	for i, c := range cl.Clients {
		cc, n := c, 0
		drivers[i] = func() (bool, error) {
			if n >= 4 {
				return false, nil
			}
			n++
			return true, cc.WriteFile("/f", make([]byte, 16<<10))
		}
	}
	if err := cl.Run(drivers); err != nil {
		t.Fatal(err)
	}
	if err := cl.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestTCPTransportDeterministic: identical configs give identical
// timelines under loss.
func TestTCPTransportDeterministic(t *testing.T) {
	run := func() time.Duration {
		tb, err := New(Config{
			Kind:         ISCSI,
			DeviceBlocks: 16384,
			Transport:    TransportTCP,
			Conns:        2,
			LossRate:     0.02,
			RTT:          10 * time.Millisecond,
			Seed:         5,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.WriteFile("/f", make([]byte, 256<<10)); err != nil {
			t.Fatal(err)
		}
		if err := tb.Drain(); err != nil {
			t.Fatal(err)
		}
		return tb.Clock.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic TCP testbed: %v vs %v", a, b)
	}
}
