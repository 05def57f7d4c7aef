package main

import "pasnet/internal/gateway"

func main() {
	opts := gateway.RouterOptions{Pipeline: true} // want
	if opts.Pipeline {                            // want
		var reg gateway.Registry
		reg.SetFixedMasks(true) // want
	}
	// A comment may say Pipeline: true or .FixedMasks freely.
	_ = "Pipeline: true"
}
