package disk

import "testing"

// BenchmarkFileStoreSweep is an out-of-core sweep as the store sees it:
// 128 objects of 64 KiB each written, then each read back.
func BenchmarkFileStoreSweep(b *testing.B) {
	const objs, size = 128, 64 << 10
	s, err := NewFileStore(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	buf := make([]byte, size)
	b.SetBytes(2 * objs * size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for id := uint64(0); id < objs; id++ {
			buf[0] = byte(i)
			if err := s.Write(id, buf); err != nil {
				b.Fatal(err)
			}
		}
		for id := uint64(0); id < objs; id++ {
			if err := s.Read(id, buf); err != nil {
				b.Fatal(err)
			}
		}
	}
}
