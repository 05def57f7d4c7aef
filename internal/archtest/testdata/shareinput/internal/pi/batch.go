package pi

import "pasnet/internal/mpc"

func query(p *mpc.Party, q []uint64) {
	sh := p.ShareInput(1, q) // want
	share := p.ShareInput    // want
	_, _ = sh, share
	_ = "ShareInput(1, q)"
}
