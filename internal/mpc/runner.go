package mpc

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"pasnet/internal/fixed"
	"pasnet/internal/transport"
)

// RunProtocol executes the same protocol program on two freshly connected
// in-memory parties and waits for both to finish, combining errors. The
// program receives its party endpoint and branches on p.ID where the roles
// differ (input owner, comparison operand, ...). dealerSeed seeds the shared
// trusted-dealer stream; the parties' private randomness is derived from
// it but kept distinct.
func RunProtocol(dealerSeed uint64, codec fixed.Codec64, fn func(p *Party) error) error {
	c0, c1 := transport.Pipe()
	defer c0.Close()
	defer c1.Close()
	ps := [2]*Party{
		NewParty(0, c0, dealerSeed, dealerSeed*2654435761+1, codec),
		NewParty(1, c1, dealerSeed, dealerSeed*2654435761+2, codec),
	}
	return RunPair([2]io.Closer{c0, c1}, func(id int) error { return fn(ps[id]) })
}

// RunPair runs party 0's and party 1's halves of a two-party computation
// concurrently — fn(0) and fn(1) — and joins their errors. A party whose
// half fails or panics closes its own end of the link, conns[id], at
// once: its peer's pending receive then ends in EOF instead of waiting
// for a frame that will never come.
func RunPair(conns [2]io.Closer, fn func(id int) error) error {
	var wg sync.WaitGroup
	var errs [2]error
	for id := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[id] = fmt.Errorf("mpc: party %d panicked: %v", id, r)
				}
				if errs[id] != nil {
					conns[id].Close()
				}
			}()
			errs[id] = fn(id)
		}()
	}
	wg.Wait()
	return errors.Join(errs[:]...)
}
