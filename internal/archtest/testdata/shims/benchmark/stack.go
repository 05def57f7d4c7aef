// benchmark/ is where the shims are still used.
package main

import (
	"pasnet/internal/gateway"
	"pasnet/internal/pi"
)

func main() {
	var reg gateway.Registry
	reg.SetFixedMasks(true)
	_ = gateway.RouterOptions{Pipeline: true}
	_ = pi.SessionOptions{FixedMasks: true}
	pi.TraceTapeMode(true)
}
