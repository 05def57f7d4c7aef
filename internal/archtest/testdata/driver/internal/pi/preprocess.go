// The demand trace builds its Engine here.
package pi

func trace(prog *Program) *Engine { return NewEngine(prog) }
