package lots

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Cluster is a running LOTS cluster: N nodes connected by a transport.
// Each node mirrors one machine of the paper's testbed, with its own
// object table, DMM area, backing store, and protocol engine.
type Cluster struct {
	cfg      Config
	mem      *transport.MemCluster // nil for socket transports
	nodes    []*Node
	counters []*stats.Counters
	clocks   []*stats.SimClock
	rings    []*trace.Ring // per-node trace rings; all nil unless cfg.Trace

	closeOnce sync.Once
}

// NewCluster builds a cluster per cfg over the configured transport:
// the in-memory interconnect by default, or real UDP/TCP sockets when
// cfg.Transport says so. cfg.Chaos wraps whichever transport was
// chosen in seeded fault injection.
func NewCluster(cfg Config) (*Cluster, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg}
	n := cfg.Nodes
	c.counters = make([]*stats.Counters, n)
	c.clocks = make([]*stats.SimClock, n)
	for i := 0; i < n; i++ {
		c.counters[i] = &stats.Counters{}
		c.clocks[i] = &stats.SimClock{}
	}
	// Trace rings exist before the endpoints: the UDP retransmit hook
	// closes over its rank's ring.
	c.rings = make([]*trace.Ring, n)
	if cfg.Trace {
		for i := 0; i < n; i++ {
			c.rings[i] = trace.NewRing(i, trace.DefaultWindow)
		}
	}
	var bases []transport.Endpoint
	if cfg.Transport == TransportMem {
		c.mem = transport.NewMemCluster(n, cfg.Platform, c.counters, c.clocks)
		bases = c.mem.Endpoints()
	} else {
		var err error
		if bases, err = c.bindSockets(); err != nil {
			return nil, err
		}
	}
	c.nodes = make([]*Node, n)
	for i := range c.nodes {
		c.nodes[i] = assembleRank(&c.cfg, i, bases[i], c.counters[i], c.clocks[i], c.rings[i])
	}
	return c, nil
}

// bindSockets binds every rank's socket — each exactly once, so a
// kernel-assigned port is never released between choosing it and using
// it — then wires every rank with the addresses the binds produced. On
// failure every already-bound socket is closed.
func (c *Cluster) bindSockets() ([]transport.Endpoint, error) {
	n := c.cfg.Nodes
	socks := make([]socketEndpoint, n)
	bases := make([]transport.Endpoint, n)
	addrs := make([]string, n)
	for i := range socks {
		sock, err := bindRank(&c.cfg, i, "", c.counters[i], c.rings[i])
		if err != nil {
			return nil, errors.Join(err, closeAll(bases[:i]))
		}
		socks[i], bases[i], addrs[i] = sock, sock, sock.LocalAddr()
	}
	for _, sock := range socks {
		if err := sock.SetPeers(addrs); err != nil {
			return nil, errors.Join(err, closeAll(bases))
		}
	}
	return bases, nil
}

func closeAll(eps []transport.Endpoint) error {
	var errs []error
	for _, ep := range eps {
		if err := ep.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Nodes returns the cluster size.
func (c *Cluster) Nodes() int { return c.cfg.Nodes }

// Node returns node i (for single-node inspection in tests).
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// NodeError reports the failure (application or DSM panic, or a dead
// peer process in multi-process deployment) of one specific node. It
// is the distinct exit path callers use to learn *which* rank died:
// errors.As on the error of Cluster.Run, NodeHandle.Run/Join, or the
// multi-process launcher yields the casualty's rank.
type NodeError struct {
	Node  int
	Cause error
}

func (e *NodeError) Error() string { return fmt.Sprintf("lots: node %d: %v", e.Node, e.Cause) }

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *NodeError) Unwrap() error { return e.Cause }

// panicError converts a recovered panic value into an error,
// preserving the chain of a panicked error value so errors.Is/As keep
// working through NodeError.Unwrap.
func panicError(r any) error {
	if err, ok := r.(error); ok {
		return err
	}
	return fmt.Errorf("%v", r)
}

// Run executes fn SPMD-style: once per node, concurrently, like the
// paper's "each machine runs a copy of the application binary". Every
// node's DSM or application panic is converted to a *NodeError and the
// per-node errors are joined, so a multi-node failure reports all of
// its casualties (with their ranks) instead of masking all but the
// lowest-ranked one.
func (c *Cluster) Run(fn func(n *Node)) error {
	errs := make([]error, c.cfg.Nodes)
	var wg sync.WaitGroup
	for i := range c.nodes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = &NodeError{Node: i, Cause: panicError(r)}
				}
			}()
			fn(c.nodes[i])
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Snapshots returns per-node counter snapshots.
func (c *Cluster) Snapshots() []stats.Snapshot {
	out := make([]stats.Snapshot, len(c.counters))
	for i, ctr := range c.counters {
		out[i] = ctr.Snap()
	}
	return out
}

// Total returns the cluster-wide counter aggregate.
func (c *Cluster) Total() stats.Snapshot {
	var t stats.Snapshot
	for _, s := range c.Snapshots() {
		t = t.Add(s)
	}
	return t
}

// SimTime returns the simulated execution time so far: the maximum of
// the per-node clocks (the slowest machine defines an SPMD phase).
func (c *Cluster) SimTime() time.Duration {
	ts := make([]time.Duration, len(c.clocks))
	for i, clk := range c.clocks {
		ts[i] = clk.Now()
	}
	return stats.MaxOf(ts...)
}

// NodeTime returns node i's simulated clock.
func (c *Cluster) NodeTime(i int) time.Duration { return c.clocks[i].Now() }

// ResetClocks zeroes all simulated clocks (for measuring a phase).
func (c *Cluster) ResetClocks() {
	for _, clk := range c.clocks {
		clk.Reset()
	}
}

// Config returns the cluster configuration (after validation defaults).
func (c *Cluster) Config() Config { return c.cfg }

// Close shuts down transports and backing stores.
func (c *Cluster) Close() {
	c.closeOnce.Do(func() {
		if c.mem != nil {
			c.mem.Close()
		}
		for _, n := range c.nodes {
			n.close()
		}
	})
}
