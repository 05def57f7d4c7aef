package nn

type Layer interface{}

type Residual struct{ Body, Shortcut Layer }
