package sched

import "pasnet/internal/mpc"

var halves = mpc.NewHalfStream // want

func stream(seed uint64) { mpc.NewStream(seed) } // want
