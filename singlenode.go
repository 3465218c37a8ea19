package lots

// Multi-process deployment: one OS process hosts one node. NewCluster
// constructs every node of the cluster inside the calling process; a
// real deployment — the paper's testbed runs one process per machine —
// instead needs each process to bring up exactly one rank and find its
// peers over the network. BindNode/Join factor the cluster bring-up
// accordingly:
//
//	h, _ := lots.BindNode(cfg, id)     // bind the transport socket
//	addr := h.LocalAddr()              // report it to the launcher
//	_ = h.Join(allAddrs)               // wire peers + barrier-0 join
//	_ = h.Run(func(n *lots.Node) { .. })
//	h.Close()
//
// The join handshake is the event-only barrier of §3.6 run over the
// newly wired transport: every rank must check in at rank 0 before any
// rank's Join returns, so a successful Join proves the whole cluster
// is reachable before the application starts. cmd/lotsnode wraps this
// sequence in a daemon binary and cmd/lotslaunch spawns N of them.

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/stats"
	"repro/internal/stats/phases"
	"repro/internal/trace"
)

// NodeHandle hosts one cluster rank in this process.
type NodeHandle struct {
	cfg   Config
	id    int
	sock  socketEndpoint
	node  *Node
	ctr   *stats.Counters
	clock *stats.SimClock

	joined    bool
	closeOnce sync.Once
}

// BindNode validates cfg for single-rank bring-up and binds rank id's
// transport socket. cfg.Transport must be a socket transport (UDP or
// TCP); cfg.Addrs may be nil, in which case the node binds an
// ephemeral loopback port and LocalAddr reports the kernel's choice.
// No peer is contacted until Join.
func BindNode(cfg Config, id int) (*NodeHandle, error) {
	return BindNodeAt(cfg, id, "")
}

// BindNodeAt is BindNode with an explicit bind address for this rank,
// overriding cfg.Addrs[id] ("" keeps the default: cfg.Addrs[id] when
// set, otherwise an ephemeral loopback port). A daemon uses it to bind
// a specific interface while the rest of the address list is still
// unknown.
func BindNodeAt(cfg Config, id int, bind string) (*NodeHandle, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Transport == TransportMem {
		return nil, fmt.Errorf("lots: single-node bring-up requires a socket transport (udp or tcp), not mem")
	}
	if id < 0 || id >= cfg.Nodes {
		return nil, fmt.Errorf("lots: node id %d out of range for %d nodes", id, cfg.Nodes)
	}
	h := &NodeHandle{cfg: cfg, id: id, ctr: &stats.Counters{}, clock: &stats.SimClock{}}
	// The trace ring exists before the endpoint: the UDP retransmit
	// hook closes over it.
	var ring *trace.Ring
	if cfg.Trace {
		ring = trace.NewRing(id, trace.DefaultWindow)
	}
	sock, err := bindRank(&h.cfg, id, bind, h.ctr, ring)
	if err != nil {
		return nil, err
	}
	// The node runs on whatever assembleRank stacks over the socket;
	// the handle keeps the socket itself for SetPeers/LocalAddr.
	h.sock = sock
	h.node = assembleRank(&h.cfg, id, sock, h.ctr, h.clock, ring)
	return h, nil
}

// ID returns the rank this handle hosts.
func (h *NodeHandle) ID() int { return h.id }

// LocalAddr reports the address the node's transport socket is bound
// to — the address a launcher distributes to the other processes.
func (h *NodeHandle) LocalAddr() string { return h.sock.LocalAddr() }

// Join wires the cluster address list (rank order, this node's own
// address included) and runs the barrier-0 join handshake: an
// event-only barrier over the freshly wired transport. When Join
// returns nil, every rank has checked in and the cluster is ready for
// the application. addrs must pass ValidatePeerAddrs; nil falls back
// to cfg.Addrs.
func (h *NodeHandle) Join(addrs []string) (err error) {
	if h.joined {
		return fmt.Errorf("lots: node %d: already joined", h.id)
	}
	if addrs == nil {
		addrs = h.cfg.Addrs
	}
	if err := ValidatePeerAddrs(addrs, h.cfg.Nodes); err != nil {
		return err
	}
	if err := h.sock.SetPeers(addrs); err != nil {
		return err
	}
	// The DSM runtime aborts via panic (fatalf); a failed join must
	// surface as an error to the daemon, not kill the process opaquely.
	defer func() {
		if r := recover(); r != nil {
			err = &NodeError{Node: h.id, Cause: fmt.Errorf("join: %w", panicError(r))}
		}
	}()
	h.node.RunBarrier()
	h.joined = true
	return nil
}

// Node exposes the hosted node. The application may use it only after
// Join has succeeded.
func (h *NodeHandle) Node() *Node { return h.node }

// Run executes the application function on the hosted rank, converting
// a DSM or application panic into a *NodeError — the single-process
// analogue of Cluster.Run for one rank.
func (h *NodeHandle) Run(fn func(n *Node)) (err error) {
	if !h.joined {
		return fmt.Errorf("lots: node %d: Run before Join", h.id)
	}
	defer func() {
		if r := recover(); r != nil {
			err = &NodeError{Node: h.id, Cause: panicError(r)}
		}
	}()
	fn(h.node)
	return nil
}

// Stats returns this rank's counter snapshot.
func (h *NodeHandle) Stats() stats.Snapshot { return h.ctr.Snap() }

// Phases returns this rank's wall-clock protocol phase recorder — the
// second half of the node's observability surface (stats.MetricsHandler
// takes both).
func (h *NodeHandle) Phases() *phases.Ring { return h.node.Phases() }

// Trace returns this rank's causal trace ring, or nil when cfg.Trace
// is off (the ring's methods are nil-safe, so callers need not check).
func (h *NodeHandle) Trace() *trace.Ring { return h.node.Trace() }

// Close drains the node's endpoint — the top of the stack, so every
// wrapper above the socket empties too — and shuts the node down. The
// drain is what lets this process exit safely: its final protocol
// replies must be acknowledged by their receivers first, or a peer
// rank still waiting on one would hang against a dead process (bounded
// — a dead peer cannot stall Close beyond the drain budget).
func (h *NodeHandle) Close() {
	h.closeOnce.Do(func() {
		h.node.ep.Drain(2 * time.Second) //lint:allow mustcheck best-effort teardown drain: a dead peer must not wedge Close, and there is no caller to surface the error to
		// Nor is there one for the endpoint's close error; Cluster.Close
		// drops it too.
		h.node.close() //nolint:errcheck
	})
}

// ValidatePeerAddrs checks a peer address list for single-node
// bring-up: exactly one well-formed host:port per rank, no duplicates,
// no unbound ports (a ":0" cannot be dialed — every address must be a
// concrete bound socket by the time the list is distributed).
func ValidatePeerAddrs(addrs []string, nodes int) error {
	if len(addrs) != nodes {
		return fmt.Errorf("lots: %d peer addrs for %d nodes", len(addrs), nodes)
	}
	seen := make(map[string]int, len(addrs))
	for i, a := range addrs {
		host, port, err := net.SplitHostPort(a)
		if err != nil {
			return fmt.Errorf("lots: peer addr %d %q: %w", i, a, err)
		}
		if host == "" || port == "" || port == "0" {
			return fmt.Errorf("lots: peer addr %d %q is not a concrete host:port", i, a)
		}
		if j, dup := seen[a]; dup {
			return fmt.Errorf("lots: duplicate peer addr %q for nodes %d and %d", a, j, i)
		}
		seen[a] = i
	}
	return nil
}
