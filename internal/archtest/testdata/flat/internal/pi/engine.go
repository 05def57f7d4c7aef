package pi

import layers "pasnet/internal/nn"

func infer(l layers.Layer, b block) {
	switch l.(type) {
	case *layers.Residual: // want
		run(b.body)     // want
		run(b.shortcut) // want
	}
	// A comment may name nn.Residual and b.body.
	_ = "b.shortcut"
}

func run(layers.Layer) {}
