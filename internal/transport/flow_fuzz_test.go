package transport

import (
	"bytes"
	"testing"

	"repro/internal/wire"
)

// FuzzFlowFrameParse feeds arbitrary datagrams to the flow-control
// frame parser: it may reject them but must never panic or over-read,
// and any accepted frame must carry a known kind.
func FuzzFlowFrameParse(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{frameData})
	f.Add(makeFrame(frameData, 1, 7, 0, []byte("fragment")))
	f.Add(makeAckFrame(2, 9, 0xDEADBEEF, 1<<18))
	f.Add(makeAckFrame(2, 9, 0xDEADBEEF, 0))
	f.Add(makeAckFrame(2, 9, 0xDEADBEEF, ^uint32(0)))
	f.Add(makeAckFrame(2, 9, 0xDEADBEEF, 1<<18)[:flowHeaderLen+sackLen])   // byte window absent
	f.Add(makeAckFrame(2, 9, 0xDEADBEEF, 1<<18)[:flowHeaderLen+sackLen+2]) // byte window cut short
	f.Add(makeFrame(99, 0, 0, 0, nil))                                     // unknown kind
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, ok := parseFlowFrame(data)
		if !ok {
			return
		}
		if fr.kind != frameData && fr.kind != frameAck {
			t.Fatalf("parser accepted unknown frame kind %d", fr.kind)
		}
		if fr.kind == frameData && len(fr.payload) != len(data)-flowHeaderLen {
			t.Fatalf("data payload length %d, want %d", len(fr.payload), len(data)-flowHeaderLen)
		}
	})
}

// FuzzFlowFrameRoundTrip asserts makeFrame/makeAckFrame and
// parseFlowFrame are inverses for arbitrary field values.
func FuzzFlowFrameRoundTrip(f *testing.F) {
	f.Add(uint16(0), uint32(0), uint32(0), uint64(0), uint32(0), []byte(nil))
	f.Add(uint16(65535), uint32(1)<<31, uint32(7), ^uint64(0), ^uint32(0), []byte("payload"))
	f.Add(uint16(1), uint32(3), uint32(3), uint64(2), uint32(4*wire.MaxDatagram), []byte{1})
	f.Fuzz(func(t *testing.T, src uint16, seq, ack uint32, sack uint64, share uint32, payload []byte) {
		data := makeFrame(frameData, src, seq, 0, payload)
		fr, ok := parseFlowFrame(data)
		if !ok || fr.kind != frameData || fr.src != src || fr.seq != seq || !bytes.Equal(fr.payload, payload) {
			t.Fatalf("data frame round trip: ok=%v %+v", ok, fr)
		}
		af := makeAckFrame(src, ack, sack, share)
		fa, ok := parseFlowFrame(af)
		if !ok || fa.kind != frameAck || fa.src != src || fa.ack != ack || fa.sack != sack || fa.share != share {
			t.Fatalf("ack frame round trip: ok=%v %+v", ok, fa)
		}
		// An older peer's ack stops after the bitmap (or the header):
		// the fields present still parse, the byte window reads as 0.
		fo, ok := parseFlowFrame(af[:flowHeaderLen+sackLen])
		if !ok || fo.ack != ack || fo.sack != sack || fo.share != 0 {
			t.Fatalf("ack without byte window: ok=%v %+v", ok, fo)
		}
	})
}
