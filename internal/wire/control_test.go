package wire

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func ctrlSamples() []Ctrl {
	return []Ctrl{
		{Kind: CtrlHello, Node: 2, Addr: "127.0.0.1:40123"},
		{Kind: CtrlPeers, Node: 0, Addrs: []string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3", "127.0.0.1:4"}},
		{Kind: CtrlReady, Node: 3},
		{Kind: CtrlDigest, Node: 1, Digest: "sha256:deadbeef", SimNS: -7, Msgs: 123, Bytes: 1 << 40,
			Epoch: 3, Ckpts: 12, CkptSkipped: 30, Rehomes: 1},
		{Kind: CtrlError, Node: 0, Err: "lotsnode: join: endpoint closed"},
		{Kind: CtrlEpoch, Node: 2, Epoch: 5},
		{Kind: CtrlStats, Node: 1, Epoch: 4, Stats: []CtrlStat{
			{Name: "msgs_sent", Val: 99}, {Name: "obj_fetches", Val: -1}, {Name: "phase_barrier_wait_ns", Val: 1 << 33},
		}},
		{Kind: CtrlLog, Node: 3, Log: "node 3: barrier 7 exit (12ms)"},
	}
}

// TestCtrlRoundTrip: every frame kind survives encode/decode and the
// stream writer/reader, including several frames back to back.
func TestCtrlRoundTrip(t *testing.T) {
	var stream bytes.Buffer
	for _, c := range ctrlSamples() {
		got, err := DecodeCtrl(EncodeCtrl(c))
		if err != nil {
			t.Fatalf("%v: %v", c.Kind, err)
		}
		if !reflect.DeepEqual(got, c) {
			t.Errorf("%v: round trip %+v != %+v", c.Kind, got, c)
		}
		if err := WriteCtrl(&stream, c); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range ctrlSamples() {
		got, err := ReadCtrl(&stream)
		if err != nil {
			t.Fatalf("stream %v: %v", want.Kind, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("stream %v: %+v != %+v", want.Kind, got, want)
		}
	}
	if stream.Len() != 0 {
		t.Errorf("%d bytes left in stream", stream.Len())
	}
}

// TestCtrlRejects: truncation, bad magic, unknown kinds, oversized
// claims, and trailing garbage must all fail loudly.
func TestCtrlRejects(t *testing.T) {
	if _, err := DecodeCtrl(nil); err == nil {
		t.Error("empty payload accepted")
	}
	if _, err := DecodeCtrl([]byte{99, 0, 0}); err == nil {
		t.Error("unknown kind accepted")
	}
	p := EncodeCtrl(Ctrl{Kind: CtrlReady, Node: 1})
	if _, err := DecodeCtrl(append(p, 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	enc := EncodeCtrl(Ctrl{Kind: CtrlHello, Node: 1, Addr: "x:1"})
	if _, err := DecodeCtrl(enc[:len(enc)-1]); err == nil {
		t.Error("truncated string accepted")
	}
	// A string claiming 2^31 bytes must be rejected, not allocated.
	var w Buffer
	w.U8(uint8(CtrlHello)).U16(0).U32(1 << 31)
	if _, err := DecodeCtrl(w.Bytes()); err == nil {
		t.Error("absurd string length accepted")
	}
	// A stats frame claiming more entries than the bound must be
	// rejected before any entry is parsed.
	var ws Buffer
	ws.U8(uint8(CtrlStats)).U16(0).U32(1).U16(ctrlMaxStats + 1)
	if _, err := DecodeCtrl(ws.Bytes()); err == nil {
		t.Error("oversized stats entry count accepted")
	}
	// A stats frame whose entry list is cut short must fail, not yield
	// a partial list.
	enc = EncodeCtrl(Ctrl{Kind: CtrlStats, Node: 0, Epoch: 1,
		Stats: []CtrlStat{{Name: "msgs_sent", Val: 7}, {Name: "barriers", Val: 3}}})
	if _, err := DecodeCtrl(enc[:len(enc)-4]); err == nil {
		t.Error("truncated stats entries accepted")
	}
	// A stat name claiming an absurd length must be rejected.
	var wn Buffer
	wn.U8(uint8(CtrlStats)).U16(0).U32(0).U16(1).U32(1 << 30)
	if _, err := DecodeCtrl(wn.Bytes()); err == nil {
		t.Error("absurd stat name length accepted")
	}
	// A truncated log line must fail.
	enc = EncodeCtrl(Ctrl{Kind: CtrlLog, Node: 2, Log: "boom"})
	if _, err := DecodeCtrl(enc[:len(enc)-1]); err == nil {
		t.Error("truncated log line accepted")
	}
	if _, err := ReadCtrl(strings.NewReader("XXXX\x00\x00\x00\x00")); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := ReadCtrl(strings.NewReader("LCTL\xff\xff\xff\xff")); err == nil {
		t.Error("absurd frame length accepted")
	}
	if _, err := ReadCtrl(strings.NewReader("LC")); err == nil {
		t.Error("short header accepted")
	}
}
