package gateway

import m "pasnet/internal/mpc"

func connect(seed uint64) {
	d := m.NewDealer(seed) // want
	_ = d
}
