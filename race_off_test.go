//go:build !race

package lots

const raceBuild = false
