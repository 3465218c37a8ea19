//go:build race

package transport

// raceBuild reports that the race detector is on. Under it sync.Pool
// drops a quarter of what is put, at random, so pooled frames and reply
// channels are reallocated now and then and allocation counts are not
// exact.
const raceBuild = true
