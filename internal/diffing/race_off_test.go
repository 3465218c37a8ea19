//go:build !race

package diffing

const raceBuild = false
