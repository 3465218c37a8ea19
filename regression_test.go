package lots

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/jiajia"
	"repro/internal/wire"
)

// TestRegressionPendingGrantOmission replays workload seeds that once
// exposed two protocol bugs: (1) a grant responder holding DEFERRED
// scope diffs (received while its copy was invalid) served grants that
// omitted those words, so the next writer worked from a stale value
// that then won the barrier merge; (2) a manager-direct re-grant could
// carry a stale lock version (TLockFree in flight), making release
// versions non-monotone. Both manifested as lost lock-guarded updates.
func TestRegressionPendingGrantOmission(t *testing.T) {
	for _, seed := range []int64{3733037832948776515, 9107921128717432967,
		4171440962791494992, -5302284352489274718} {
		for iter := 0; iter < 10; iter++ {
			if err := runMixedSeed(seed); err != nil {
				t.Fatalf("seed %d iter %d: %v", seed, iter, err)
			}
		}
	}
}

func runMixedSeed(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	const (
		nodes  = 3
		objs   = 4
		size   = 32
		rounds = 4
		perCS  = 6
	)
	type op struct {
		obj, idx int
		add      int32
	}
	plans := make([][]op, nodes)
	for nd := 0; nd < nodes; nd++ {
		for r := 0; r < rounds; r++ {
			for k := 0; k < perCS; k++ {
				plans[nd] = append(plans[nd], op{obj: rng.Intn(objs), idx: rng.Intn(size), add: int32(1 + rng.Intn(5))})
			}
		}
	}
	want := make([][]int32, objs)
	for o := range want {
		want[o] = make([]int32, size)
	}
	for nd := 0; nd < nodes; nd++ {
		for _, p := range plans[nd] {
			want[p.obj][p.idx] += p.add
		}
	}
	cfg := DefaultConfig(nodes)
	cfg.DMMSize = 8 << 10
	c, err := NewCluster(cfg)
	if err != nil {
		return err
	}
	defer c.Close()
	return c.Run(func(n *Node) {
		ptrs := make([]Ptr[int32], objs)
		for o := range ptrs {
			ptrs[o] = Alloc[int32](n, size)
		}
		n.Barrier()
		plan := plans[n.ID()]
		for r := 0; r < rounds; r++ {
			n.Acquire(1)
			for _, p := range plan[r*perCS : (r+1)*perCS] {
				ptrs[p.obj].Set(p.idx, ptrs[p.obj].Get(p.idx)+p.add)
			}
			n.Release(1)
			if r%2 == 1 {
				n.Barrier()
			}
		}
		n.Barrier()
		for o := range ptrs {
			for i := 0; i < size; i++ {
				if got := ptrs[o].Get(i); got != want[o][i] {
					panic(fmt.Sprintf("node %d: obj %d[%d] = %d, want %d", n.ID(), o, i, got, want[o][i]))
				}
			}
		}
	})
}

// TestRegressionBarrierArriveCountSizesNoAllocation feeds the barrier
// manager a nine-byte arrival (epoch, run-only flag, count) that claims
// 2^32-1 write notices, as one corrupt datagram from an unauthenticated
// UDP peer could. The count used to size a make before any element was
// read — a 32 GiB demand; it must instead fail the decode, having
// allocated next to nothing.
func TestRegressionBarrierArriveCountSizesNoAllocation(t *testing.T) {
	c, err := NewCluster(DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var w wire.Buffer
	w.U32(0).Bool(false).U32(^uint32(0))
	m := wire.Message{Type: wire.TBarrierArrive, From: 1, Payload: w.Bytes()}

	var before, after runtime.MemStats
	var rejected any
	runtime.ReadMemStats(&before)
	func() {
		defer func() { rejected = recover() }()
		c.nodes[0].serveBarrierArrive(m)
	}()
	runtime.ReadMemStats(&after)

	if msg, _ := rejected.(string); !strings.Contains(msg, "bad barrier arrival") {
		t.Fatalf("arrival claiming 2^32-1 write notices in 9 bytes: handler said %v, want a bad barrier arrival", rejected)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<10 {
		t.Fatalf("rejecting the arrival allocated %d bytes", grew)
	}
}

// TestRegressionGrantCountsBounded feeds applyGrant grants whose
// peer-supplied counts promise more than the payload holds. Both loops
// used to run on int(r.U32()) and die on a lookup of the zero ID a
// short read returns ("access to undeclared object 0"); every such
// grant must fail as a bad grant, and leave the lock usable.
func TestRegressionGrantCountsBounded(t *testing.T) {
	c := mustCluster(t, DefaultConfig(1))
	var id uint64
	if err := c.Run(func(n *Node) { id = Alloc[int32](n, 4).ObjectID() }); err != nil {
		t.Fatal(err)
	}
	const lk = 3
	grant := func() *wire.Buffer { return (&wire.Buffer{}).U16(lk).U32(1) }
	oneRun := func(w *wire.Buffer) *wire.Buffer { // entry: id, 1 diff of 1 run of 1 word
		return w.U64(id).U32(1).U32(1).U32(0).Bytes32([]byte{1, 0, 0, 0})
	}
	for name, payload := range map[string][]byte{
		"2^32-1 scope entries": grant().U32(^uint32(0)).Bytes(),
		"2^32-1 diffs":         grant().U32(1).U64(id).U32(^uint32(0)).Bytes(),
		// The first entry is long enough for the count to pass at 12
		// bytes each; the second is not there.
		"second entry missing": oneRun(grant().U32(2)).Bytes(),
	} {
		var rejected any
		func() {
			defer func() { rejected = recover() }()
			c.nodes[0].applyGrant(lk, payload)
		}()
		if msg, _ := rejected.(string); !strings.Contains(msg, "bad grant for lock") {
			t.Errorf("grant with %s: applyGrant said %v, want a bad grant for lock", name, rejected)
		}
	}
	if err := c.Run(func(n *Node) { n.Acquire(lk); n.Release(lk) }); err != nil {
		t.Errorf("lock unusable after the rejected grants: %v", err)
	}
}

// TestRegressionRemoteSwapInSizeSizesNoAllocation sends a twelve-byte
// swap-in request (id, size) asking for a 2^32-1 byte spill the server
// never stored. The size used to size a make before the store was
// consulted — 4 GiB per request; it must instead be refused, as a
// missing spill is, having allocated next to nothing.
func TestRegressionRemoteSwapInSizeSizesNoAllocation(t *testing.T) {
	c := mustCluster(t, DefaultConfig(2))
	var w wire.Buffer
	w.U64(7).U32(^uint32(0))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	reply := c.nodes[1].rpc(0, wire.TRemoteSwapIn, w.Bytes())
	runtime.ReadMemStats(&after)

	r := wire.NewReader(reply.Payload)
	if ok, msg := r.Bool(), r.Bytes32(); ok || r.Err() != nil || len(msg) == 0 {
		t.Fatalf("swap-in of a 2^32-1 byte spill that was never stored: ok=%v msg=%q err=%v", ok, msg, r.Err())
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<10 {
		t.Fatalf("refusing the request allocated %d bytes", grew)
	}
}

// TestRegressionReplyRegistrationAfterClose: once a node's endpoint has
// closed and its dispatch loop has drained the pending table, every
// site that registers a reply channel must fail instead of blocking on
// a channel nothing will ever signal — in both DSMs, which share
// transport.Mux. The barrier fan-out used to register its acks without
// the check and hang in a closing node, where send errors were
// swallowed; JIAJIA's own copy of the plumbing never had the check.
func TestRegressionReplyRegistrationAfterClose(t *testing.T) {
	c := mustCluster(t, DefaultConfig(2))
	jc, err := jiajia.NewCluster(jiajia.Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := jc.Close(); err != nil {
		t.Fatal(err)
	}
	n := c.Node(0)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, _, err := n.mux.Expect(); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("dispatch loop never drained after Close")
		}
	}
	for name, f := range map[string]func(){
		"lots callAll":   func() { n.callAll([]call{{to: 1, typ: wire.TBarrierDiff}}) },
		"lots rpcT":      func() { n.rpcT(1, wire.TBarrierDiff, nil, wire.TraceCtx{}) },
		"jiajia Barrier": jc.Node(0).Barrier,
	} {
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			f()
		}()
		select {
		case r := <-done:
			if r == nil || !strings.Contains(fmt.Sprint(r), "endpoint closed") {
				t.Errorf("%s on a closed endpoint: recovered %v, want an \"endpoint closed\" panic", name, r)
			}
		case <-time.After(10 * time.Second):
			t.Errorf("%s on a closed endpoint blocks", name)
		}
	}
}
