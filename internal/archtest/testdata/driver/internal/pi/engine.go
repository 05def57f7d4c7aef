package pi

type Program struct{}

type Engine struct{ Prog *Program }

// NewEngine wraps a program; its declaration is allowed, another use in
// this file is not.
func NewEngine(prog *Program) *Engine { return &Engine{Prog: prog} }

var spare = NewEngine(nil) // want
