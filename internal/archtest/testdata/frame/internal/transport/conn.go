// The adapter is the one definition of the typed methods.
package transport

type adapter struct{}

func (c *adapter) SendUints(xs []uint32) error { return nil }

func (c *adapter) RecvUints() ([]uint32, error) { return nil, nil }
