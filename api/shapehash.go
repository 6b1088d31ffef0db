package api

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// ShapeHash returns the 16-hex-digit content address of one operator shape
// on one lattice: the address fusecu-tablegen's offline candidate-table
// artifacts are stored under, whose grid argument distinguishes the "full"
// and "coarse" lattices. Nothing on the serving path uses it; fusecu-route
// routes by health and never parses a request.
//
// Only the dimensions and the grid participate — operator names are
// presentation, and cost depends on shape alone. The hash is the first 8
// bytes of a SHA-256 over a canonical string: stable across processes,
// architectures, and releases.
func ShapeHash(m, k, l int, grid string) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("fusecu/%s|%d|%d|%d|%s", Version, m, k, l, grid)))
	return hex.EncodeToString(sum[:8])
}
