package transport

// Deferred bring-up: the multi-process launcher binds every node's
// socket first (ephemeral ":0" ports), collects the kernel-assigned
// addresses via LocalAddr, and only then distributes the peer list.
// These tests exercise that order — bind, report, wire, talk — for
// both socket transports, including traffic that races SetPeers.

import (
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestUDPDeferredBringUp binds two UDP endpoints on ephemeral ports,
// exchanges the reported addresses, and verifies traffic flows both
// ways afterwards.
func TestUDPDeferredBringUp(t *testing.T) {
	const n = 2
	eps := make([]*UDPEndpoint, n)
	for i := range eps {
		ep, err := NewUDPEndpointDeferred(i, n, "127.0.0.1:0", UDPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		eps[i] = ep
	}
	addrs := make([]string, n)
	for i, ep := range eps {
		addrs[i] = ep.LocalAddr()
		if strings.HasSuffix(addrs[i], ":0") {
			t.Fatalf("endpoint %d reports unbound address %q", i, addrs[i])
		}
	}
	if addrs[0] == addrs[1] {
		t.Fatalf("both endpoints report %q", addrs[0])
	}
	for _, ep := range eps {
		if err := ep.SetPeers(addrs); err != nil {
			t.Fatal(err)
		}
	}
	for i, ep := range eps {
		if err := ep.Send(wire.Message{Type: wire.TLockFree, To: uint16(1 - i), Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	for i, ep := range eps {
		m, ok := ep.Recv()
		if !ok || m.Payload[0] != byte(1-i) {
			t.Fatalf("endpoint %d: recv %v ok=%v", i, m, ok)
		}
	}
}

// TestUDPSendBeforePeersHeals sends while the receiver has not wired
// its peer list yet: the receiver cannot ack, so the sender's window
// must carry the message across the gap via retransmission.
func TestUDPSendBeforePeersHeals(t *testing.T) {
	const n = 2
	// Short RTO so the post-SetPeers retransmission lands within the
	// test budget.
	o := UDPOptions{rto: 10 * time.Millisecond}
	a, err := NewUDPEndpointDeferred(0, n, "127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewUDPEndpointDeferred(1, n, "127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	addrs := []string{a.LocalAddr(), b.LocalAddr()}
	if err := a.SetPeers(addrs); err != nil {
		t.Fatal(err)
	}
	// a sends while b's peers are still unwired: b buffers the data but
	// its ack is dropped, so a keeps retransmitting.
	if err := a.Send(wire.Message{Type: wire.TLockFree, To: 1, Payload: []byte("early")}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if err := b.SetPeers(addrs); err != nil {
		t.Fatal(err)
	}
	m, ok := b.Recv()
	if !ok || string(m.Payload) != "early" {
		t.Fatalf("recv %q ok=%v, want %q", m.Payload, ok, "early")
	}
}

// TestTCPDeferredBringUp is the TCP flavour: listeners bind first, a
// send enqueued before SetPeers waits for the peer list instead of
// failing, and delivery completes once the list is wired.
func TestTCPDeferredBringUp(t *testing.T) {
	const n = 2
	eps := make([]*TCPEndpoint, n)
	for i := range eps {
		ep, err := NewTCPEndpointDeferred(i, n, "127.0.0.1:0", TCPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		eps[i] = ep
	}
	addrs := make([]string, n)
	for i, ep := range eps {
		addrs[i] = ep.LocalAddr()
		if strings.HasSuffix(addrs[i], ":0") {
			t.Fatalf("endpoint %d reports unbound address %q", i, addrs[i])
		}
	}
	// Enqueue before the peer list exists: the dial loop must wait for
	// SetPeers, not burn its attempts against nothing.
	if err := eps[0].Send(wire.Message{Type: wire.TLockFree, To: 1, Payload: []byte("queued")}); err != nil {
		t.Fatal(err)
	}
	for _, ep := range eps {
		if err := ep.SetPeers(addrs); err != nil {
			t.Fatal(err)
		}
	}
	m, ok := eps[1].Recv()
	if !ok || string(m.Payload) != "queued" {
		t.Fatalf("recv %q ok=%v, want %q", m.Payload, ok, "queued")
	}
}

// TestSetPeersValidation: wrong counts and double wiring must be
// rejected on both transports.
func TestSetPeersValidation(t *testing.T) {
	u, err := NewUDPEndpointDeferred(0, 3, "127.0.0.1:0", UDPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	c, err := NewTCPEndpointDeferred(0, 3, "127.0.0.1:0", TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	three := []string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"}
	for name, set := range map[string]func([]string) error{"udp": u.SetPeers, "tcp": c.SetPeers} {
		if err := set(three[:2]); err == nil {
			t.Errorf("%s: SetPeers accepted 2 addrs for 3 nodes", name)
		}
		if err := set(three); err != nil {
			t.Errorf("%s: SetPeers rejected a valid list: %v", name, err)
		}
		if err := set(three); err == nil {
			t.Errorf("%s: SetPeers accepted a second wiring", name)
		}
	}
	if _, err := NewUDPEndpointDeferred(3, 3, "127.0.0.1:0", UDPOptions{}); err == nil {
		t.Error("udp: rank 3 of 3 accepted")
	}
	if _, err := NewTCPEndpointDeferred(-1, 3, "127.0.0.1:0", TCPOptions{}); err == nil {
		t.Error("tcp: rank -1 accepted")
	}
	if err := u.SetPeers([]string{"127.0.0.1:1", "nonsense::::", "127.0.0.1:3"}); err == nil {
		t.Error("udp: unresolvable peer address accepted")
	}
}

// TestLocalAddrMatchesExplicitBind: with a concrete bind address the
// reported address is that address (sanity for the launcher protocol).
func TestLocalAddrMatchesExplicitBind(t *testing.T) {
	addrs, err := FreeLocalAddrs(1)
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUDPEndpointDeferred(0, 1, addrs[0], UDPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	if got := u.LocalAddr(); got != addrs[0] {
		t.Errorf("LocalAddr = %q, want %q", got, addrs[0])
	}
}
