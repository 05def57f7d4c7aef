// The dealer's own package is outside the row.
package mpc

func NewParty(seed uint64) { NewDealer(seed) }
