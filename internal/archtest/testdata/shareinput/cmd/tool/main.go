package main

import "pasnet/internal/mpc"

func main() {
	var p mpc.Party
	p.ShareInput(0, nil) // want
}
