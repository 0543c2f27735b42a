package analysis

import "strings"

// deterministicPkgs names the packages whose outputs are pinned by
// golden hashes (directly, or by feeding state into golden-pinned
// simulations). Classification is by import-path segment so it holds
// for both the real module paths
// (github.com/collablearn/ciarec/internal/fed) and the GOPATH-style
// fixture paths the analysistest runner loads (plain "fed").
var deterministicPkgs = map[string]bool{
	"fed":         true,
	"gossip":      true,
	"simcore":     true, // the frame fed and gossip share, and its replay harness
	"model":       true,
	"attack":      true,
	"defense":     true,
	"transport":   true, // includes transport/rpc via segment match
	"experiments": true,
}

// hotKernelPkgs names the packages whose []float64 inner loops must go
// through the mathx seam (the mathxseam analyzer's scope).
var hotKernelPkgs = map[string]bool{
	"fed":    true,
	"model":  true,
	"attack": true,
}

// pkgInSet reports whether any import-path segment of path is in set.
// go vet hands test variants paths like "pkg [pkg.test]"; the bracket
// suffix is stripped before matching.
func pkgInSet(path string, set map[string]bool) bool {
	if i := strings.IndexByte(path, ' '); i >= 0 {
		path = path[:i]
	}
	for _, seg := range strings.Split(path, "/") {
		if set[seg] {
			return true
		}
	}
	return false
}

// IsDeterministicPkg reports whether the import path belongs to the
// golden-pinned deterministic surface (see ANALYSIS.md).
func IsDeterministicPkg(path string) bool { return pkgInSet(path, deterministicPkgs) }
