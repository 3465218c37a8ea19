package lots

import (
	"bytes"
	"testing"

	"repro/internal/diffing"
	"repro/internal/object"
	"repro/internal/wire"
)

// TestVersionBumpsOnlyWhenBytesMove pins the byte rule behind data
// versions at a home, for both updates that land there mid-epoch: a
// stamped diff (here a home-based lock flush, the barrier diff's path)
// and a lock grant diff. One whose words all re-assert present bytes or
// lose the newest-wins merge leaves the data version alone — the next
// checkpoint may skip the object — and one that moves a single byte
// bumps it once.
func TestVersionBumpsOnlyWhenBytesMove(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Recovery = DefaultRecovery(t.TempDir())
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var id object.ID
	err = c.Run(func(n *Node) {
		x := Alloc[int32](n, 4) // id 1: homed at node 1
		if n.ID() == 1 {
			x.Set(0, 5)
		}
		n.Barrier()
		if n.ID() == 1 {
			id = object.ID(x.ObjectID())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	home := c.nodes[1]
	epoch := home.Epoch()
	state := func() (uint32, []byte) {
		home.mu.Lock()
		defer home.mu.Unlock()
		ctl := home.lookup(id)
		return ctl.Ver, append([]byte(nil), home.objData(ctl, home.clock)...)
	}
	word := func(v byte) []byte { return []byte{v, 0, 0, 0} }
	flush := func(runs ...diffing.StampedRun) {
		var w wire.Buffer
		w.U32(epoch).U8(1).U64(uint64(id))
		diffing.StampedDiff{Runs: runs}.Encode(&w)
		if reply := c.nodes[0].rpc(1, wire.TBarrierDiff, w.Bytes()); reply.Type != wire.TBarrierDiffAck {
			t.Fatalf("flush answered %v", reply.Type)
		}
	}
	grant := func(runs ...diffing.Run) {
		home.mu.Lock()
		defer home.mu.Unlock()
		home.applyScopeDiff(home.lookup(id), 2, 1, diffing.Diff{Runs: runs}, home.clock)
	}
	expect := func(step string, bumps uint32, want []byte) {
		t.Helper()
		ver, data := state()
		if ver != bumps {
			t.Errorf("%s: version %d, want %d", step, ver, bumps)
		}
		if !bytes.Equal(data[:len(want)], want) {
			t.Errorf("%s: bytes % x, want % x", step, data[:len(want)], want)
		}
	}
	v0, _ := state()
	flush(diffing.StampedRun{Off: 0, Data: word(5)})
	expect("flush re-asserting x[0]", v0, word(5))
	flush(diffing.StampedRun{Off: 4, Data: word(7), Ver: 3, Lock: 1})
	expect("flush writing x[1] under lock 1 v3", v0+1, append(word(5), word(7)...))
	flush(diffing.StampedRun{Off: 0, Data: word(5)}, diffing.StampedRun{Off: 4, Data: word(8), Ver: 2, Lock: 1},
		diffing.StampedRun{Off: 4, Data: word(9)})
	expect("flush re-asserting x[0], losing x[1] twice", v0+1, append(word(5), word(7)...))
	flush(diffing.StampedRun{Off: 8, Data: []byte{0, 1, 0, 0}})
	expect("flush moving one byte of x[2]", v0+2, []byte{5, 0, 0, 0, 7, 0, 0, 0, 0, 1, 0, 0})
	grant(diffing.Run{Off: 0, Data: []byte{5, 0, 0, 0, 7, 0, 0, 0}})
	expect("grant re-asserting x[0:2]", v0+2, append(word(5), word(7)...))
	grant(diffing.Run{Off: 4, Data: []byte{7, 0, 0, 0, 0, 1, 0, 1}})
	expect("grant moving one byte of x[2]", v0+3, []byte{5, 0, 0, 0, 7, 0, 0, 0, 0, 1, 0, 1})
}
