// Declaring the methods in an interface is not a definition.
package transport

type Conn interface {
	SendUints(xs []uint32) error
	RecvUints() ([]uint32, error)
}
