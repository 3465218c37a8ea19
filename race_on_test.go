//go:build race

package lots

// raceBuild reports that the race detector is on. Its instrumentation
// allocates, and under it sync.Pool drops a quarter of what is put, so
// allocation counts are not exact.
const raceBuild = true
