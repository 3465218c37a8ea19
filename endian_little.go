//go:build 386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

package lots

// hostLittleEndian reports that a T in this host's memory already has
// the arena's little-endian element layout, so an element moves with one
// typed load or store and a span with one copy. A constant, so the other
// branch is gone before the inliner prices At and Set.
const hostLittleEndian = true
