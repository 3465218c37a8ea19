package lots

import (
	"crypto/tls"
	"fmt"
	"net"

	"repro/internal/disk"
	"repro/internal/platform"
	"repro/internal/transport"
)

// LockMode selects the coherence protocol used for lock-synchronized
// updates (§3.4 mixed protocol, plus the pure-home-based ablation).
type LockMode uint8

const (
	// LockHomeless is the paper's choice: a homeless write-update
	// protocol; updates travel with the lock grant.
	LockHomeless LockMode = iota
	// LockHomeBased is the ablation variant: releases flush diffs to
	// the object's home, and grants carry invalidations, like JIAJIA.
	LockHomeBased
)

// BarrierMode selects the coherence protocol used at barriers.
type BarrierMode uint8

const (
	// BarrierMigratingHome is the paper's choice: single-writer objects
	// migrate their home to the writer with no data transfer;
	// multi-writer objects send diffs to the (fixed) home; all
	// non-home copies are invalidated.
	BarrierMigratingHome BarrierMode = iota
	// BarrierFixedHome is the ablation variant: homes never migrate;
	// every writer (even a sole writer) must ship diffs to the home.
	BarrierFixedHome
	// BarrierUpdateBroadcast is the pure write-update ablation: every
	// writer broadcasts its diffs to all nodes at the barrier — the
	// all-to-all traffic the paper argues against.
	BarrierUpdateBroadcast
)

// DiffMode selects how lock-scope updates are represented.
type DiffMode uint8

const (
	// DiffPerFieldStamps is the paper's scheme (§3.5, Figure 7b):
	// per-word timestamps allow on-demand diffs with no redundancy.
	DiffPerFieldStamps DiffMode = iota
	// DiffAccumulate reproduces the TreadMarks-style accumulated diff
	// chains (Figure 7a) for the diff-accumulation ablation.
	DiffAccumulate
)

// EvictMode selects the DMM-area victim policy.
type EvictMode uint8

const (
	// EvictLRU is the paper's policy: least-recently-used unpinned
	// object, via per-object access timestamps (§3.3).
	EvictLRU EvictMode = iota
	// EvictFIFO is the ablation policy: oldest-mapped unpinned object.
	EvictFIFO
)

// Protocol bundles the coherence-protocol knobs. The zero value is the
// configuration the paper evaluates.
type Protocol struct {
	Lock    LockMode
	Barrier BarrierMode
	Diff    DiffMode
	Evict   EvictMode
}

// TransportKind selects the cluster interconnect.
type TransportKind uint8

const (
	// TransportMem is the in-process interconnect with deterministic
	// simulated-time accounting (the default; the only choice for the
	// benchmark harness).
	TransportMem TransportKind = iota
	// TransportUDP runs nodes over real UDP sockets with the paper's
	// sliding-window flow control (§3.6).
	TransportUDP
	// TransportTCP runs nodes over persistent TCP connections with
	// length-prefixed framing and reconnect-on-failure.
	TransportTCP
)

func (k TransportKind) String() string {
	switch k {
	case TransportMem:
		return "mem"
	case TransportUDP:
		return "udp"
	case TransportTCP:
		return "tcp"
	default:
		return fmt.Sprintf("transport(%d)", uint8(k))
	}
}

// Chaos configures seeded fault injection for the interconnect; see
// Config.Chaos. Aliased from the transport package so importers of
// this package can construct it without reaching into internal/.
type Chaos = transport.Chaos

// ChaosStats counts the faults a Chaos configuration injected.
type ChaosStats = transport.ChaosStats

// DefaultChaos returns a hostile-but-recoverable fault profile with a
// reproducible schedule derived from seed.
func DefaultChaos(seed int64) Chaos { return transport.DefaultChaos(seed) }

// RankChaosSeed derives rank's fault-schedule seed from a cluster-wide
// one. In-process clusters share one Chaos value, but a multi-process
// deployment builds each rank's endpoint in its own process: giving
// every rank the same seed would correlate their schedules in ways a
// single-process run never sees (each side of a link drawing the SAME
// pseudo-random drops). The golden-ratio mix keeps the per-rank
// schedules deterministic from one launcher seed yet decorrelated —
// the convention every multi-process component (cmd/lotsnode,
// cmd/lotslaunch, the multiproc harness) agrees on.
func RankChaosSeed(seed int64, rank int) int64 {
	return seed ^ int64(rank)*0x9E3779B9
}

// SelfSignedTLS generates an in-memory self-signed certificate pair
// shared by every node of one cluster, ready for Config.TLS: the TCP
// listeners serve it and the dialers trust exactly it. Test- and
// smoke-grade; production clusters supply their own PKI material.
func SelfSignedTLS() (*tls.Config, error) { return transport.SelfSignedTLS() }

// Config describes a LOTS cluster.
type Config struct {
	// Nodes is the cluster size (the paper supports up to 256
	// processes).
	Nodes int

	// DMMSize is the per-node dynamic memory mapping area in bytes.
	// The paper's implementation uses 512 MB; tests use much smaller
	// areas so swapping is exercised at laptop scale.
	DMMSize int

	// LargeObjectSpace enables the dynamic memory mapping mechanism
	// and the pinning machinery. Setting it to false yields LOTS-x,
	// the variant the paper benchmarks to isolate the large-object-
	// space overhead (§4.1, §4.2): objects then live permanently in
	// process memory and the DMM area is unused.
	LargeObjectSpace bool

	// Platform is the simulated hardware/OS cost profile.
	Platform platform.Profile

	// Store builds each node's backing store. Nil defaults to an
	// in-memory simulated disk bounded by Platform.DiskFreeBytes. The
	// caller owns what Store returns: the runtime never closes it, so a
	// store holding files must be closed by the caller once the cluster
	// is.
	Store func(node int) disk.Store

	// Protocol holds coherence ablation knobs; the zero value is the
	// paper's mixed protocol.
	Protocol Protocol

	// Transport selects the interconnect; the zero value is the
	// in-memory transport.
	Transport TransportKind

	// Addrs lists one socket address per node for the UDP and TCP
	// transports. Nil requests kernel-assigned loopback ports.
	Addrs []string

	// Chaos, when non-nil, injects seeded faults into the interconnect:
	// drop, duplication, reordering, delay and transient partitions of
	// datagrams for UDP; connection kills for TCP; and, above TCP and
	// mem — already exactly-once FIFO — a seeded delay per message. The
	// protocol must still produce byte-identical results.
	Chaos *Chaos

	// TLS, when non-nil, encrypts every TCP link: listeners serve the
	// config's certificates and dials verify against its root pool.
	// One config serves both roles, so it needs Certificates plus
	// RootCAs/ServerName (transport.SelfSignedTLS builds a
	// test-grade pair). Only valid with TransportTCP.
	TLS *tls.Config

	// Recovery, when non-nil, enables the checkpoint/recovery
	// subsystem: every rank writes an incremental checkpoint of its
	// homed objects at each barrier exit (and pushes it to a buddy
	// rank), and a gang-restarted fleet can resume from the newest
	// commonly restorable epoch instead of re-running from scratch.
	// Enabling recovery also turns on data-version maintenance
	// (Control.Ver), so unchanged objects cost zero checkpoint bytes.
	// Nil by default (the paper's protocol).
	Recovery *RecoveryOpts

	// Trace enables causal protocol tracing (internal/trace): each
	// node records timestamped protocol events into a bounded ring and
	// stamps outgoing request frames with a compact trace context so
	// spans link causally across ranks. Tracing records wall-clock
	// time only — it never touches the simulated clock, and final
	// shared state is byte-identical with tracing on or off (asserted
	// by TestTraceCostSelfAsserts). The ring doubles as the crash
	// flight recorder cmd/lotsnode dumps on failure. Off by default.
	Trace bool
}

// RecoveryOpts configures the checkpoint/recovery subsystem.
type RecoveryOpts struct {
	// Root is the checkpoint directory root. Each rank keeps its store
	// under Root/rank-<identity>; in a multi-machine deployment the
	// roots live on different disks and only the per-rank subdirectory
	// is used, so sharing one path string is safe either way.
	Root string

	// Resume marks this process as a restarted rank: the application
	// must call Node.Recover after its allocation prologue, which
	// negotiates a common restore epoch through rank 0, restores state,
	// and returns the epoch to resume at. cmd/lotsnode sets it for
	// -recover.
	Resume bool

	// RankMap, when non-nil, maps each rank of this cluster to the
	// identity (old rank number) whose checkpoint chain it owns — used
	// to continue degraded with N-1 ranks after a death: the surviving
	// identities keep their chains and the dead rank's objects are
	// re-homed from whichever store replicated them. Nil means rank i
	// has identity i. Must have exactly Nodes entries, distinct, each
	// in 0..OldNodes-1.
	RankMap []int

	// OldNodes is the cluster size the checkpoints being restored were
	// written with (>= Nodes). Zero means Nodes — a same-size restart.
	OldNodes int
}

// MaxNodes is the cluster-size bound; LOTS is designed to support up to
// 256 processes (§5).
const MaxNodes = 256

// DefaultDMMSize is the test-scale DMM area (the paper uses 512 MB).
const DefaultDMMSize = 4 << 20

// MaxLocks bounds the lock ID space (the paper exports a fixed lock
// set; JIAJIA-era systems commonly allow a few hundred).
const MaxLocks = 1024

// DefaultConfig returns the paper's configuration at test scale for a
// cluster of n nodes.
func DefaultConfig(n int) Config {
	return Config{
		Nodes:            n,
		DMMSize:          DefaultDMMSize,
		LargeObjectSpace: true,
		Platform:         platform.Test(),
	}
}

// validate normalizes and checks the configuration.
func (c *Config) validate() error {
	if c.Nodes < 1 || c.Nodes > MaxNodes {
		return fmt.Errorf("lots: Nodes = %d, want 1..%d", c.Nodes, MaxNodes)
	}
	if c.DMMSize == 0 {
		c.DMMSize = DefaultDMMSize
	}
	if c.DMMSize < 4096 {
		return fmt.Errorf("lots: DMMSize = %d, want >= 4096", c.DMMSize)
	}
	if c.Platform.Name == "" {
		c.Platform = platform.Test()
	}
	if c.Transport > TransportTCP {
		return fmt.Errorf("lots: unknown transport %d", c.Transport)
	}
	if c.Transport != TransportMem && c.Addrs != nil {
		if len(c.Addrs) != c.Nodes {
			return fmt.Errorf("lots: %d addrs for %d nodes", len(c.Addrs), c.Nodes)
		}
		// Two nodes on one socket address can never both bind; reject
		// the typo here rather than as a cryptic bind failure. Addresses
		// requesting a kernel-assigned port (":0") are exempt — they are
		// legitimately repeated and resolve to distinct ports.
		seen := make(map[string]int, len(c.Addrs))
		for i, a := range c.Addrs {
			if _, port, err := net.SplitHostPort(a); err == nil && port == "0" {
				continue
			}
			if j, dup := seen[a]; dup {
				return fmt.Errorf("lots: duplicate addr %q for nodes %d and %d", a, j, i)
			}
			seen[a] = i
		}
	}
	if c.TLS != nil && c.Transport != TransportTCP {
		return fmt.Errorf("lots: TLS requires the TCP transport, got %v", c.Transport)
	}
	if r := c.Recovery; r != nil {
		if r.Root == "" {
			return fmt.Errorf("lots: Recovery.Root must be set")
		}
		if r.OldNodes == 0 {
			r.OldNodes = c.Nodes
		}
		if r.OldNodes < c.Nodes {
			return fmt.Errorf("lots: Recovery.OldNodes = %d < Nodes = %d", r.OldNodes, c.Nodes)
		}
		if r.RankMap != nil {
			if len(r.RankMap) != c.Nodes {
				return fmt.Errorf("lots: Recovery.RankMap has %d entries for %d nodes", len(r.RankMap), c.Nodes)
			}
			seen := make(map[int]bool, len(r.RankMap))
			for i, old := range r.RankMap {
				if old < 0 || old >= r.OldNodes {
					return fmt.Errorf("lots: Recovery.RankMap[%d] = %d, want 0..%d", i, old, r.OldNodes-1)
				}
				if seen[old] {
					return fmt.Errorf("lots: Recovery.RankMap assigns identity %d twice", old)
				}
				seen[old] = true
			}
		} else if r.OldNodes != c.Nodes {
			return fmt.Errorf("lots: Recovery.OldNodes = %d != Nodes = %d requires RankMap", r.OldNodes, c.Nodes)
		}
	}
	return nil
}

// DefaultRecovery returns the standard recovery configuration: durable
// checkpoints under root, each replicated to a buddy rank.
func DefaultRecovery(root string) *RecoveryOpts {
	return &RecoveryOpts{Root: root}
}
