//go:build race

package diffing

// raceBuild reports that the race detector is on. Under it sync.Pool
// drops a quarter of what is put, at random, so the scan's scratch is
// reallocated now and then and allocation counts are not exact.
const raceBuild = true
