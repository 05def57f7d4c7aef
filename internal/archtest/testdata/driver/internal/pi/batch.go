// The Session builds its Engine here.
package pi

func session(prog *Program) *Engine { return NewEngine(prog) }
