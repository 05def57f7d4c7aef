package pi

import "pasnet/internal/corr"

// Run is the other.
func Run(seed uint64) { corr.BuildPair(nil, nil, seed) }
