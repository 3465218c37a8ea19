package diffing

import (
	"testing"

	"repro/internal/object"
)

func benchData(size, step int) (cur, twin []byte) {
	twin = make([]byte, size)
	cur = MakeTwin(twin)
	for i := 0; i < size; i += step {
		cur[i] = 0xFF
	}
	return cur, twin
}

func BenchmarkComputeSparse(b *testing.B) {
	cur, twin := benchData(64<<10, 512)
	b.SetBytes(64 << 10)
	for i := 0; i < b.N; i++ {
		_ = Compute(cur, twin)
	}
}

func BenchmarkComputeDense(b *testing.B) {
	cur, twin := benchData(64<<10, 8)
	b.SetBytes(64 << 10)
	for i := 0; i < b.N; i++ {
		_ = Compute(cur, twin)
	}
}

func BenchmarkApply(b *testing.B) {
	cur, twin := benchData(64<<10, 64)
	d := Compute(cur, twin)
	dst := MakeTwin(twin)
	b.SetBytes(64 << 10)
	for i := 0; i < b.N; i++ {
		if err := Apply(dst, d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFilterByStamp(b *testing.B) {
	cur, _ := benchData(64<<10, 64)
	stamps := make([]object.WordStamp, len(cur)/4)
	for i := 0; i < len(stamps); i += 16 {
		stamps[i] = object.WordStamp{Ver: 5, Lock: 1}
	}
	include := func(s object.WordStamp) bool { return s.Lock == 1 && s.Ver > 2 }
	b.SetBytes(64 << 10)
	for i := 0; i < b.N; i++ {
		_ = FilterByStamp(cur, stamps, include)
	}
}

// The benchmark/ cells' shapes, 256 KiB: every 16th word, every word,
// and the stamped diff of a modified eighth against a blank table.
func BenchmarkCompute256K(b *testing.B) {
	const size = 256 << 10
	for _, tc := range []struct {
		name string
		step int
	}{{"sparse", 64}, {"dense", 4}, {"clean", size}} {
		cur, twin := benchData(size, tc.step)
		if tc.step == size {
			cur[0] = 0
		}
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(size)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = Compute(cur, twin)
			}
		})
	}
}

func BenchmarkComputeStamped256K(b *testing.B) {
	const size = 256 << 10
	twin := make([]byte, size)
	cur := MakeTwin(twin)
	for i := 0; i < size/8; i += 4 {
		cur[i] = 0xFF
	}
	stamps := make([]object.WordStamp, size/4)
	b.SetBytes(size)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = ComputeStamped(cur, twin, stamps, 1)
	}
}

func BenchmarkScanOnly256K(b *testing.B) {
	const size = 256 << 10
	for _, tc := range []struct {
		name string
		step int
	}{{"sparse", 64}, {"dense", 4}, {"clean", size}} {
		cur, twin := benchData(size, tc.step)
		if tc.step == size {
			cur[0] = 0
		}
		runs := make([]span, 0, size/8)
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(size)
			for i := 0; i < b.N; i++ {
				runs = scan(runs[:0], cur, twin, nil, 0)
			}
		})
	}
}
