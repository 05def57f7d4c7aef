// The row covers the benchmark module too.
package main

import "pasnet/internal/pi"

var eng = pi.NewEngine(nil) // want
