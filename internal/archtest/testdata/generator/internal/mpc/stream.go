// Outside internal/corr the generator's names are free.
package mpc

import "pasnet/internal/rng"

func NewStream(seed uint64) { rng.New(seed).FillUint64(nil) }
