package wire

import "testing"

func BenchmarkEncodeDecodeSmall(b *testing.B) {
	m := Message{Type: TLockGrant, From: 1, To: 2, ReqID: 42, Payload: make([]byte, 128)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(encode(m)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFragmentReassemble256K(b *testing.B) {
	enc := encode(Message{Type: TObjFetchReply, Payload: make([]byte, 256<<10)})
	b.SetBytes(int64(len(enc)))
	for i := 0; i < b.N; i++ {
		r := NewReassembler()
		done := false
		for _, f := range fragments(enc, uint64(i)) {
			if _, d, err := r.Feed(f); err != nil {
				b.Fatal(err)
			} else if d {
				done = true
			}
			PutSlab(f)
		}
		if !done {
			b.Fatal("not reassembled")
		}
	}
}
