package mpc

import (
	"errors"
	"fmt"
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
	p0 := NewParty(0, c0, dealerSeed, dealerSeed*2654435761+1, codec)
	p1 := NewParty(1, c1, dealerSeed, dealerSeed*2654435761+2, codec)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, p := range []*Party{p0, p1} {
		wg.Add(1)
		go func(i int, p *Party) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("mpc: party %d panicked: %v", p.ID, r)
				}
			}()
			errs[i] = fn(p)
		}(i, p)
	}
	wg.Wait()
	c0.Close()
	c1.Close()
	return errors.Join(errs...)
}
