// Quickstart: the paper's Fig. 2 in code — secret-share values between
// two parties, evaluate a multiply-accumulate and a secure comparison on
// ciphertext, and verify the result matches plaintext.
package main

import (
	"fmt"
	"log"

	"pasnet/internal/fixed"
	"pasnet/internal/mpc"
	"pasnet/internal/obs"
	"pasnet/internal/transport"
)

func main() {
	// Model vendor holds w; the client query u is held by the other
	// server. Plaintext reference: dot(u, w) and sign(dot).
	w := []float64{2, -3}
	u := []float64{-3, -5}
	plainDot := u[0]*w[0] + u[1]*w[1] // = 9

	err := mpc.RunProtocol(42, fixed.Default64(), func(p *mpc.Party) error {
		// Transports do not count traffic; the obs wrapper does.
		wire := obs.InstrumentConn(p.Conn, nil)
		p.Conn = wire

		// Each party contributes its private input.
		var encW, encU []uint64
		if p.ID == 0 {
			encW = p.EncodeTensor(w)
		} else {
			encU = p.EncodeTensor(u)
		}
		wSh, err := p.ShareInput(0, encW, 2)
		if err != nil {
			return err
		}
		uSh, err := p.ShareInput(1, encU, 2)
		if err != nil {
			return err
		}

		// Ciphertext dot product: a 1×2 @ 2×1 multiply on one Beaver
		// matrix triple.
		sum, err := p.MatMul(uSh.Reshape(1, 2), wSh.Reshape(2, 1))
		if err != nil {
			return err
		}

		// Secure comparison: is the dot product positive?
		bit, err := p.DReLU(sum)
		if err != nil {
			return err
		}
		peerBit, err := transport.Exchange(p.Conn, bit.W)
		if err != nil {
			return err
		}
		positive := bit.W[0]^peerBit[0] == 1

		// Reconstruct the value itself.
		vals, err := p.Reveal(sum)
		if err != nil {
			return err
		}
		got := p.DecodeTensor(vals)[0]
		if p.ID == 0 {
			fmt.Printf("plaintext dot(u,w) = %.2f\n", plainDot)
			fmt.Printf("ciphertext dot(u,w) = %.2f (positive=%v)\n", got, positive)
			fmt.Printf("traffic sent by party 0: %d bytes\n", wire.Totals().SentBytes)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}
