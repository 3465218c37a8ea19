//go:build !(386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package lots

// Big-endian hosts, and any architecture endian_little.go does not
// list, take the per-element codec, which is correct on every host.
const hostLittleEndian = false
