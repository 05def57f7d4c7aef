//go:build ignore

// A file the build excludes is not a serving dependency either.
package pi

import "pasnet/internal/ot"

var _ = ot.Transfer
