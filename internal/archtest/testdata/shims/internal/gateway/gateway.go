package gateway

type Registry struct{}

// SetFixedMasks does nothing.
func (r *Registry) SetFixedMasks(bool) {}

type RouterOptions struct {
	// Pipeline's own declaration is not a use.
	Pipeline bool
}
