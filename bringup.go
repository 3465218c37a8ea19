package lots

// Rank bring-up, shared by the in-process cluster (NewCluster) and the
// one-rank-per-process deployment (BindNode): bindRank opens a rank's
// socket, assembleRank stacks the node on an endpoint. NewCluster over
// sockets is N binds, one SetPeers per rank with the bound addresses,
// and N assemblies; BindNodeAt is one bind and one assembly, with
// SetPeers left to Join.

import (
	"time"

	"repro/internal/disk"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// socketEndpoint is the deferred-capable face shared by the UDP and
// TCP endpoints: bind first, report the bound address, wire peers
// later.
type socketEndpoint interface {
	transport.Endpoint
	SetPeers([]string) error
	LocalAddr() string
}

// chaosUDPRTO is the shortened retransmission timeout used when fault
// injection is enabled over UDP, so injected losses heal within test
// budgets instead of the production 50ms clock.
const chaosUDPRTO = 15 * time.Millisecond

// bindRank binds rank id's socket on cfg's socket transport (UDP or
// TCP) without contacting any peer. bind "" means cfg.Addrs[id] when
// set, otherwise an ephemeral loopback port; LocalAddr reports what the
// kernel chose. cfg.Chaos is installed at the layer the socket itself
// owns: datagram-level injection for UDP (so the sliding-window
// machinery absorbs the faults), connection kills for TCP.
func bindRank(cfg *Config, id int, bind string, ctr *stats.Counters, ring *trace.Ring) (socketEndpoint, error) {
	if bind == "" {
		bind = "127.0.0.1:0"
		if cfg.Addrs != nil {
			bind = cfg.Addrs[id]
		}
	}
	var (
		sock socketEndpoint
		err  error
	)
	switch cfg.Transport {
	case TransportUDP:
		o := transport.UDPOptions{Counters: ctr}
		if ring != nil {
			o.OnRetransmit = func(frags int) {
				ring.Instant(trace.Retransmit, 0, uint64(frags), wire.TraceCtx{})
			}
		}
		if cfg.Chaos != nil {
			o.Chaos = cfg.Chaos
			o.RTO = chaosUDPRTO
		}
		sock, err = transport.NewUDPEndpointDeferred(id, cfg.Nodes, bind, o)
	case TransportTCP:
		o := transport.TCPOptions{Counters: ctr, Chaos: cfg.Chaos, TLS: cfg.TLS}
		sock, err = transport.NewTCPEndpointDeferred(id, cfg.Nodes, bind, o)
	}
	if err != nil {
		return nil, err
	}
	return sock, nil
}

// assembleRank builds rank id's node on base — a mem endpoint or a
// bound socket — and starts its dispatcher. cfg.Chaos wraps mem and
// TCP endpoints in message-level fault injection here (UDP injects
// below the window, in its socket), and frame coalescing wraps the
// result; the caller keeps base for whatever the concrete endpoint
// offers beyond transport.Endpoint.
func assembleRank(cfg *Config, id int, base transport.Endpoint, ctr *stats.Counters, clk *stats.SimClock, ring *trace.Ring) *Node {
	ep := base
	if cfg.Chaos != nil && cfg.Transport != TransportUDP {
		ep = transport.Chaosify(ep, *cfg.Chaos)
	}
	// Coalescing wraps outermost — above chaos — so a batch crosses the
	// faulty layer as one unit, exactly like the single datagram or
	// write it becomes on a socket transport. Deferred messages are
	// stamped from the node's clock at Defer time, the moment Send would
	// have stamped them.
	top := transport.NewBatching(ep, ctr, func() int64 { return int64(clk.Now()) })
	var store disk.Store
	if cfg.LargeObjectSpace {
		if cfg.Store != nil {
			store = cfg.Store(id)
		} else {
			store = disk.NewSimStore(cfg.Platform.DiskFreeBytes)
		}
		store = disk.NewAccounted(store, cfg.Platform, ctr, clk)
	}
	nd := newNode(id, cfg, top, store, ctr, clk, ring)
	go nd.mux.Serve()
	return nd
}
