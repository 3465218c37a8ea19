package transport

import (
	"crypto/tls"
	"crypto/x509"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestTLSEndpointExchange is the direct smoke: two endpoints over TLS
// links exchange a request and a reply with payloads intact. (The full
// endpoint-semantics suite also runs over TLS via the tcp+tls cells in
// conformance_test.go.)
func TestTLSEndpointExchange(t *testing.T) {
	cfg, err := SelfSignedTLS()
	if err != nil {
		t.Fatal(err)
	}
	addrs, err := FreeLocalTCPAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]*TCPEndpoint, 2)
	for i := range eps {
		if eps[i], err = NewTCPEndpointOptions(i, addrs, TCPOptions{TLS: cfg}); err != nil {
			t.Fatal(err)
		}
		defer eps[i].Close()
	}
	want := []byte("over the encrypted wire")
	if err := eps[0].Send(wire.Message{Type: wire.TObjFetchReq, To: 1, ReqID: 9, Payload: want}); err != nil {
		t.Fatal(err)
	}
	m, ok := recvDeadline(t, eps[1], 5*time.Second)
	if !ok || string(m.Payload) != string(want) || m.From != 0 || m.ReqID != 9 {
		t.Fatalf("TLS exchange: got %+v, ok=%v", m, ok)
	}
	if err := eps[1].Send(wire.Message{Type: wire.TObjFetchReply, To: 0, ReqID: 9}); err != nil {
		t.Fatal(err)
	}
	if m, ok := recvDeadline(t, eps[0], 5*time.Second); !ok || m.Type != wire.TObjFetchReply {
		t.Fatalf("TLS reply: got %+v, ok=%v", m, ok)
	}
}

// TestTLSRejectsPlaintextPeer: a plaintext client speaking the frame
// protocol at a TLS listener must fail its handshake and must not
// wedge or panic the endpoint — later legitimate TLS traffic flows.
func TestTLSRejectsPlaintextPeer(t *testing.T) {
	cfg, err := SelfSignedTLS()
	if err != nil {
		t.Fatal(err)
	}
	addrs, err := FreeLocalTCPAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]*TCPEndpoint, 2)
	for i := range eps {
		if eps[i], err = NewTCPEndpointOptions(i, addrs, TCPOptions{TLS: cfg}); err != nil {
			t.Fatal(err)
		}
		defer eps[i].Close()
	}
	// Raw TCP "hello" frame at the TLS port: the server must not treat
	// it as a cluster peer.
	conn, err := net.Dial("tcp", eps[1].LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	conn.Write(makeTCPFrame(tcpHello, 0, nil)) //nolint:errcheck // hostile peer
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 64)
	if n, err := conn.Read(buf); err == nil && n > 0 {
		// Whatever bytes come back must be a TLS alert/handshake, never
		// a cleartext helloAck frame (length-prefix 9, kind 2).
		if n >= 5 && buf[4] == tcpHelloAck {
			t.Fatal("TLS listener answered a plaintext peer with a cleartext hello-ack")
		}
	}
	conn.Close()
	// The endpoint must still serve real peers.
	if err := eps[0].Send(wire.Message{Type: wire.TLockFree, To: 1, Payload: []byte("still up")}); err != nil {
		t.Fatal(err)
	}
	if m, ok := recvDeadline(t, eps[1], 5*time.Second); !ok || string(m.Payload) != "still up" {
		t.Fatalf("endpoint wedged after plaintext probe: %+v ok=%v", m, ok)
	}
}

// TestTLSRejectsUntrustedCert: a dial that trusts a different root
// must fail verification — the transport never falls back to
// plaintext or unverified mode.
func TestTLSRejectsUntrustedCert(t *testing.T) {
	serverCfg, err := SelfSignedTLS()
	if err != nil {
		t.Fatal(err)
	}
	otherCfg, err := SelfSignedTLS() // distinct key + self-signed root
	if err != nil {
		t.Fatal(err)
	}
	addrs, err := FreeLocalTCPAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := NewTCPEndpointOptions(1, addrs, TCPOptions{TLS: serverCfg})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	clientCfg := &tls.Config{
		MinVersion: tls.VersionTLS13,
		RootCAs:    otherCfg.RootCAs,
		ServerName: otherCfg.ServerName,
	}
	conn, err := tls.DialWithDialer(&net.Dialer{Timeout: 2 * time.Second}, "tcp", ep.LocalAddr(), clientCfg)
	if err == nil {
		conn.Close()
		t.Fatal("dial with an untrusted root verified the cluster certificate")
	}
}

// TestTLSRejectsUnauthenticatedClient: the listener must demand and
// verify a client certificate — a TLS client with no certificate
// (even one willing to trust the server blindly) must fail the
// handshake before it can speak a single protocol frame.
func TestTLSRejectsUnauthenticatedClient(t *testing.T) {
	cfg, err := SelfSignedTLS()
	if err != nil {
		t.Fatal(err)
	}
	addrs, err := FreeLocalTCPAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := NewTCPEndpointOptions(1, addrs, TCPOptions{TLS: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	conn, err := tls.DialWithDialer(&net.Dialer{Timeout: 2 * time.Second}, "tcp", ep.LocalAddr(),
		&tls.Config{MinVersion: tls.VersionTLS13, InsecureSkipVerify: true})
	if err != nil {
		return // rejected at handshake: exactly right
	}
	defer conn.Close()
	// TLS 1.3 servers report a client-cert failure on first use of the
	// connection, so a completed Dial is not yet acceptance: the peer
	// must refuse to converse.
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	conn.Write(makeTCPFrame(tcpHello, 0, nil)) //nolint:errcheck // probe
	buf := make([]byte, 64)
	if n, err := conn.Read(buf); err == nil && n >= 5 && buf[4] == tcpHelloAck {
		t.Fatal("listener accepted a certificate-less TLS client as a cluster peer")
	}
}

// TestCAPerNodeCerts: a fleet CA issues distinct leaf pairs that
// verify against the root, carry both the cluster SAN and the rank
// SAN, and interoperate end to end over real endpoints.
func TestCAPerNodeCerts(t *testing.T) {
	ca, err := NewCA()
	if err != nil {
		t.Fatal(err)
	}
	cert0, key0, err := ca.IssueNode(0)
	if err != nil {
		t.Fatal(err)
	}
	cert1, key1, err := ca.IssueNode(1)
	if err != nil {
		t.Fatal(err)
	}
	if string(key0) == string(key1) {
		t.Fatal("two ranks issued the same private key")
	}
	cfgs := make([]*tls.Config, 2)
	if cfgs[0], err = NodeTLS(cert0, key0, ca.CertPEM()); err != nil {
		t.Fatal(err)
	}
	if cfgs[1], err = NodeTLS(cert1, key1, ca.CertPEM()); err != nil {
		t.Fatal(err)
	}
	leaf, err := x509.ParseCertificate(cfgs[1].Certificates[0].Certificate[0])
	if err != nil {
		t.Fatal(err)
	}
	wantSANs := map[string]bool{tlsServerName: false, NodeName(1): false}
	for _, n := range leaf.DNSNames {
		wantSANs[n] = true
	}
	for n, seen := range wantSANs {
		if !seen {
			t.Errorf("rank 1 leaf missing SAN %q (has %v)", n, leaf.DNSNames)
		}
	}
	addrs, err := FreeLocalTCPAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]*TCPEndpoint, 2)
	for i := range eps {
		if eps[i], err = NewTCPEndpointOptions(i, addrs, TCPOptions{TLS: cfgs[i]}); err != nil {
			t.Fatal(err)
		}
		defer eps[i].Close()
	}
	if err := eps[0].Send(wire.Message{Type: wire.TObjFetchReq, To: 1, ReqID: 2, Payload: []byte("per-node certs")}); err != nil {
		t.Fatal(err)
	}
	if m, ok := recvDeadline(t, eps[1], 5*time.Second); !ok || string(m.Payload) != "per-node certs" {
		t.Fatalf("per-node cert exchange failed: %+v ok=%v", m, ok)
	}
}

// TestCARejectsForeignFleet: a rank holding a leaf from a different
// fleet's CA must fail verification against this fleet's root.
func TestCARejectsForeignFleet(t *testing.T) {
	ca, err := NewCA()
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := NewCA()
	if err != nil {
		t.Fatal(err)
	}
	serverCfg, err := ca.NodeConfig(1)
	if err != nil {
		t.Fatal(err)
	}
	foreignCert, foreignKey, err := foreign.IssueNode(0)
	if err != nil {
		t.Fatal(err)
	}
	// The intruder trusts the real fleet's root (so its server check
	// passes) but presents a foreign leaf — the listener's client-cert
	// verification must refuse it.
	intruderCfg, err := NodeTLS(foreignCert, foreignKey, ca.CertPEM())
	if err != nil {
		t.Fatal(err)
	}
	addrs, err := FreeLocalTCPAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := NewTCPEndpointOptions(1, addrs, TCPOptions{TLS: serverCfg})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	conn, err := tls.DialWithDialer(&net.Dialer{Timeout: 2 * time.Second}, "tcp", ep.LocalAddr(), intruderCfg)
	if err != nil {
		return // rejected during the handshake: exactly right
	}
	defer conn.Close()
	// TLS 1.3 surfaces a client-cert rejection on first conversation.
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	conn.Write(makeTCPFrame(tcpHello, 0, nil)) //nolint:errcheck // probe
	buf := make([]byte, 64)
	if n, err := conn.Read(buf); err == nil && n >= 5 && buf[4] == tcpHelloAck {
		t.Fatal("listener accepted a leaf signed by a foreign fleet CA")
	}
}

// TestLoadNodeTLS: the PEM file path lotsnode's -tls-* flags use
// round-trips through disk.
func TestLoadNodeTLS(t *testing.T) {
	ca, err := NewCA()
	if err != nil {
		t.Fatal(err)
	}
	certPEM, keyPEM, err := ca.IssueNode(3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	certFile := filepath.Join(dir, "node.crt")
	keyFile := filepath.Join(dir, "node.key")
	caFile := filepath.Join(dir, "ca.crt")
	for _, f := range []struct {
		path string
		data []byte
	}{{certFile, certPEM}, {keyFile, keyPEM}, {caFile, ca.CertPEM()}} {
		if err := os.WriteFile(f.path, f.data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	cfg, err := LoadNodeTLS(certFile, keyFile, caFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Certificates) != 1 || cfg.ClientAuth != tls.RequireAndVerifyClientCert {
		t.Fatalf("loaded config incomplete: %+v", cfg)
	}
	if _, err := LoadNodeTLS(certFile, keyFile, keyFile); err == nil {
		t.Error("a key file accepted as the CA certificate")
	}
	if _, err := LoadNodeTLS(filepath.Join(dir, "missing"), keyFile, caFile); err == nil {
		t.Error("missing certificate file accepted")
	}
}

// TestTLSSessionResumption: after the transport's reconnect machinery
// re-dials a severed connection, the new TLS handshake must resume the
// previous session (TLS 1.3 ticket) instead of paying a full
// certificate exchange. Observed via VerifyConnection, which both
// sides run post-verification with DidResume populated.
func TestTLSSessionResumption(t *testing.T) {
	ca, err := NewCA()
	if err != nil {
		t.Fatal(err)
	}
	var resumed atomic.Int64
	cfgs := make([]*tls.Config, 2)
	for i := range cfgs {
		if cfgs[i], err = ca.NodeConfig(i); err != nil {
			t.Fatal(err)
		}
		cfgs[i].VerifyConnection = func(cs tls.ConnectionState) error {
			if cs.DidResume {
				resumed.Add(1)
			}
			return nil
		}
	}
	addrs, err := FreeLocalTCPAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]*TCPEndpoint, 2)
	for i := range eps {
		if eps[i], err = NewTCPEndpointOptions(i, addrs, TCPOptions{TLS: cfgs[i]}); err != nil {
			t.Fatal(err)
		}
		defer eps[i].Close()
	}
	send := func(id uint64) {
		t.Helper()
		if err := eps[0].Send(wire.Message{Type: wire.TObjFetchReq, To: 1, ReqID: id}); err != nil {
			t.Fatal(err)
		}
		if m, ok := recvDeadline(t, eps[1], 5*time.Second); !ok || m.ReqID != id {
			t.Fatalf("message %d not delivered: %+v ok=%v", id, m, ok)
		}
	}
	send(1) // full handshake; server mints a session ticket
	// Sever and resend until a handshake reports DidResume. The first
	// reconnect may race the ticket's arrival (tickets ride the client's
	// read path post-handshake), so allow a few rounds.
	deadline := time.Now().Add(10 * time.Second)
	for i := uint64(2); resumed.Load() == 0; i++ {
		if time.Now().After(deadline) {
			t.Fatal("no TLS session was resumed across reconnects")
		}
		time.Sleep(50 * time.Millisecond) // let the ticket land
		l := eps[0].links[1]
		l.mu.Lock()
		conn := l.conn
		l.mu.Unlock()
		if conn != nil {
			conn.Close()
		}
		send(i)
	}
}

// TestSelfSignedTLSShape sanity-checks the generated material: both
// roles present, modern minimum version.
func TestSelfSignedTLSShape(t *testing.T) {
	cfg, err := SelfSignedTLS()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Certificates) != 1 || cfg.RootCAs == nil || cfg.ServerName == "" {
		t.Fatalf("SelfSignedTLS config incomplete: %+v", cfg)
	}
	if cfg.MinVersion < tls.VersionTLS13 {
		t.Fatalf("MinVersion = %x, want TLS 1.3", cfg.MinVersion)
	}
	if cfg.ClientAuth != tls.RequireAndVerifyClientCert || cfg.ClientCAs == nil {
		t.Fatal("SelfSignedTLS does not require mutual authentication")
	}
	leaf := cfg.Certificates[0].Leaf
	if leaf == nil || len(leaf.DNSNames) == 0 || leaf.DNSNames[0] != cfg.ServerName {
		t.Fatalf("certificate SAN does not cover the config's ServerName")
	}
}
