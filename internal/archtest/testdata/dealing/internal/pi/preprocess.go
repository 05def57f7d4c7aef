package pi

import (
	"pasnet/internal/corr"
	"pasnet/internal/rng"
)

// WriteStorePair is one of the two places allowed to deal today.
func WriteStorePair(seed uint64) {
	corr.BuildPair(nil, rng.New(seed), seed)
}

func rebuild(seed uint64) {
	corr.BuildPair(nil, rng.New(seed), seed) // want
}
