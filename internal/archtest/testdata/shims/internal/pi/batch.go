package pi

type SessionOptions struct {
	// Deprecated: FixedMasks is ignored.
	FixedMasks bool
}

// Only SessionOptions' field is the shim's declaration.
type LegacyOptions struct {
	FixedMasks bool // want
}

func open() SessionOptions { return SessionOptions{FixedMasks: true} } // want
