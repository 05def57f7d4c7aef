// The serving binary reaches internal/ot only through two packages.
package main

import "pasnet/internal/gateway"

func main() { gateway.Serve() }
