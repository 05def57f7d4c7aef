package gateway

import "pasnet/internal/pi"

func probe(prog *pi.Program) {
	eng := pi.NewEngine(prog) // want
	build := pi.NewEngine     // want
	_, _ = eng, build
}
