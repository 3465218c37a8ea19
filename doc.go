// Package lots is a from-scratch reproduction of LOTS, the software
// distributed shared memory (DSM) system of Cheung, Wang and Lau
// ("LOTS: A Software DSM Supporting Large Object Space", IEEE CLUSTER
// 2004). LOTS provides cluster applications with a shared object space
// larger than any single process's address space by lazily mapping
// object data from local disk into a fixed-size dynamic memory mapping
// (DMM) area on access.
//
// The runtime implements:
//
//   - A shared-object model with deterministic cluster-wide object IDs
//     and a handle type (Ptr) the size of a pointer that supports
//     pointer arithmetic, mirroring the paper's C++ Pointer<T> class.
//   - Pinned zero-copy views (View, from Ptr.View/ViewRW and
//     Matrix.RowView/RowViewRW): one lock acquisition, one access/write
//     check, one twin and one DMM pin per span at creation, then
//     At/Set/Slice/CopyTo/CopyFrom against the mapped bytes with no
//     lock and no per-element check — the statement-scope pinning of
//     §3.3 exposed as an API. The legacy element-wise Get/Set (and the
//     copying GetN/SetN) remain as one-element/one-span views.
//   - The dynamic memory mapper: a best-fit allocator with 1024
//     size-class queues, small/medium/large placement, same-page
//     packing of equal-size small objects, and LRU-with-pinning
//     eviction to a local-disk backing store (§3.2, §3.3).
//   - Scope consistency (§3.4) with the paper's mixed coherence
//     protocol: a homeless write-update protocol propagates object
//     updates with lock grants, and a migrating-home write-invalidate
//     protocol reconciles updates at barriers.
//   - Per-field (per-word) timestamps that let diffs be computed on
//     demand against the requester's knowledge, eliminating the diff
//     accumulation problem (§3.5).
//   - Locks, barriers, and the event-only RunBarrier (§3.6), over
//     point-to-point transports with 64 KB message fragmentation.
//
// A cluster of N nodes runs inside one process (one goroutine group per
// node) over a pluggable interconnect selected by Config.Transport:
//
//   - TransportMem (default): in-memory, with deterministic
//     simulated-time accounting — the only choice for the benchmark
//     harness.
//   - TransportUDP: real UDP sockets with the paper's sliding-window
//     flow control, acknowledgements, and retransmission (§3.6).
//   - TransportTCP: persistent TCP connections with length-prefixed
//     framing and reconnect-on-failure with exactly-once resume.
//     Config.TLS upgrades every TCP link to TLS 1.3 (see
//     SelfSignedTLS for a test-grade certificate pair).
//
// Setting Config.Chaos injects seeded faults: drop, duplication,
// reordering, delay and partitions of UDP datagrams beneath the window,
// TCP connection kills, and seeded per-message delay above mem and TCP
// (all a link can do to a reliable FIFO channel). The protocol produces
// byte-identical shared state in every {mem, udp, tcp} x {clean, chaos}
// cell. See the examples directory and DESIGN.md for the inventory.
//
// # Quick start
//
//	cfg := lots.DefaultConfig(4)
//	cluster, err := lots.NewCluster(cfg)
//	if err != nil { ... }
//	defer cluster.Close()
//	err = cluster.Run(func(n *lots.Node) {
//		a := lots.Alloc[int32](n, 100)
//		if n.ID() == 0 {
//			a.Set(7, 42)
//		}
//		n.Barrier()
//		_ = a.Get(7) // 42 on every node
//	})
//
// Bulk inner loops should run on views — one access check for the whole
// span instead of one per element (see examples/quickstartview):
//
//	w := a.ViewRW(0, a.Len())
//	for i := 0; i < w.Len(); i++ {
//		w.Set(i, int32(i))
//	}
//	w.Release() // release before the next Barrier
//
// To run the same cluster over a hostile network instead:
//
//	cfg.Transport = lots.TransportTCP // or TransportUDP
//	chaos := lots.DefaultChaos(42)
//	cfg.Chaos = &chaos
//
// # Read-mostly lease coherence
//
// Setting Config.Leases = true keeps read-mostly cached copies alive
// across barriers: homes version object data, hand out bounded read
// leases with fetch replies, and at barrier time cachers revalidate
// leased copies with one batched version check per home instead of
// blindly invalidating — a copy whose bytes the home never changed
// stays valid with zero data transfer.
//
// Leases help when objects are re-published without (much) change and
// re-read every epoch: pivot rows after their elimination epoch,
// boundary rows of a converged stencil region, published prefix
// tables. They cost one small query round per (node, home) pair per
// barrier and per-object version bookkeeping, so they buy nothing —
// and waste a little — on write-hot data that changes every epoch, on
// single-reader data, or on lock-dominated sharing (lock-scope updates
// forfeit the holder's lease by design). Final shared state is
// byte-identical with leases on or off; only the round-trip count
// changes (see TestLeaseCostSelfAsserts in internal/harness, ~4.7x
// fewer fetches on the read-mostly workload, and DESIGN.md "Lease
// coherence").
//
// # Fault tolerance: checkpoint and recovery
//
// Setting Config.Recovery (see DefaultRecovery) makes every rank cut
// an incremental checkpoint of its homed objects at each barrier exit
// — bytes only for objects whose data version moved, a durable file
// per (owner, epoch) plus a replica pushed to a buddy rank — and lets
// a gang-restarted fleet resume from the newest commonly restorable
// epoch instead of re-running: restarted ranks re-run their
// deterministic allocation prologue, then call Node.Recover, which
// negotiates the restore epoch collectively, re-homes owners whose
// stores were lost from the buddy replicas, and returns the epoch to
// resume the application's loop at. Recovery must be invisible in the
// bytes: the restarted run's final state is byte-identical to an
// uninterrupted run of the plain protocol (see the TestRecovery* suite
// in recovery_test.go, `lotslaunch -kill-rank` for the same across
// real process death, and DESIGN.md "Fault tolerance: checkpoint &
// recovery").
//
// # Wire-path performance
//
// The encode/fragment/reassemble path recycles its buffers through a
// size-classed slab pool: the send side allocates nothing in steady
// state and the receive side allocates once per delivered message
// (handlers retain payloads). Every burst of requests a barrier or
// release round issues — diffs to homes, lease revalidations — goes
// out pipelined, each peer's run packed into one batched datagram, and
// is charged on the simulated clock as serial sends and one parallel
// wait (see DESIGN.md, "Wire path: pooling and coalescing").
//
// The ownership and lifetime contracts this package states in prose —
// release views before the next barrier, never let pooled wire buffers
// or their aliases outlive PutSlab, never index a payload without a
// length guard — are mechanically enforced by the cmd/lotsvet analyzer
// suite, run in CI both directly and as a `go vet -vettool` (see
// DESIGN.md, "Static analysis: invariants as analyzers").
//
// # Multi-process deployment
//
// NewCluster hosts every node in the calling process. For the paper's
// real deployment model — one OS process per node — each process hosts
// a single rank via BindNode/Join (see DESIGN.md, "Deployment"):
//
//	cfg := lots.DefaultConfig(4)
//	cfg.Transport = lots.TransportUDP
//	h, err := lots.BindNode(cfg, rank) // binds an ephemeral port
//	if err != nil { ... }
//	defer h.Close()                    // drains the endpoint, then closes
//	// distribute h.LocalAddr(); collect all four addresses ...
//	if err := h.Join(addrs); err != nil { ... } // barrier-0 handshake
//	err = h.Run(func(n *lots.Node) { /* SPMD body as above */ })
//
// The cmd/lotsnode binary wraps this sequence; cmd/lotslaunch spawns
// and coordinates N of them. Launching four nodes on localhost:
//
//	go build -o lotsnode ./cmd/lotsnode
//	go run ./cmd/lotslaunch -nodes 4 -transport both -app sor \
//	    -problem 32 -node-bin ./lotsnode
//
// or, fully by hand with a static port plan (one terminal each, or &):
//
//	A=127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003
//	for i in 0 1 2 3; do
//	  ./lotsnode -id $i -nodes 4 -transport udp -addrs $A \
//	      -app me -problem 16384 &
//	done; wait
//
// Every process prints a digest of the final shared state; the
// launcher (cmd/lotslaunch) additionally asserts the digests are
// byte-identical across the processes and equal to an in-process
// mem-transport run of the same seed.
//
// # Fleet deployment and metrics
//
// The launcher can place ranks on other hosts (-spawner ssh; -spawner
// wrap prefixes an arbitrary stream-transparent command, %r = rank)
// and observe them in flight: -tls issues one certificate per rank
// from a launcher-held CA, -metrics-base exposes each rank's
// Prometheus endpoint, and -watch renders streamed per-rank stats as
// a live fleet table:
//
//	go run ./cmd/lotslaunch -nodes 4 -transport tcp -app sor \
//	    -problem 32 -spawner ssh -hosts h1,h2 -ssh-bin /opt/lotsnode \
//	    -tls -metrics-base 9300 -watch -logdir /tmp/fleet
//
// A standalone lotsnode serves the same endpoint with -metrics:
//
//	./lotsnode -id 0 -nodes 4 -transport udp -addrs $A \
//	    -app me -problem 16384 -metrics 127.0.0.1:9300 &
//	curl -s http://127.0.0.1:9300/metrics | grep lots_msgs_sent_total
//
// The exposition carries every internal/stats counter
// (lots_*_total{node="i"}) plus wall-clock protocol phase timings
// (lots_phase_ns_total / lots_phase_events_total: barrier wait, diff
// apply, fetch serve, lease revalidate, checkpoint cut) from
// internal/stats/phases. The launcher scrapes and verifies the full
// inventory per rank and persists each final scrape to
// logdir/node-<i>.stats (see DESIGN.md, "Fleet deployment and
// observability"). The same mux serves the standard net/http/pprof
// surface under /debug/pprof/, so a live rank can be profiled without
// redeploying.
//
// # Causal tracing
//
// Config.Trace turns on the protocol tracer: every barrier, lock,
// diff, fetch, lease, and checkpoint event lands in a per-node bounded
// ring (internal/trace), and requests stamp a 14-byte trace context on
// their wire frames so the serving rank's span links back to the
// requesting rank's. A traced fleet merges every rank's export into
// one clock-aligned timeline:
//
//	go run ./cmd/lotslaunch -nodes 4 -transport udp -app sor \
//	    -problem 32 -trace -logdir /tmp/fleet
//	# load /tmp/fleet/fleet.trace.json in Perfetto / chrome://tracing
//
// The launcher also prints a per-barrier straggler report (which rank
// arrived last, and which protocol phase dominated its epoch), and on
// a rank crash it surfaces the casualty's flight-recorder tail — the
// last events from its ring, dumped to stderr on failure or SIGQUIT.
// TestTraceCostSelfAsserts (internal/harness) asserts that tracing is
// an observer — byte-identical final state, identical simulated time
// and message count — and internal/trace's TestDisabledPathZeroAlloc
// that it allocates nothing when disabled (see DESIGN.md, "Causal
// tracing and flight recorder").
package lots
