package mpc

type Party struct{}

// ShareInput secret-shares a tensor held by owner; the declaration is
// the one allowed site.
func (p *Party) ShareInput(owner int, secret []uint64) []uint64 { return secret }
