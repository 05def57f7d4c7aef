// A release outside internal/mpc, far from the op that read the frame, is
// caught whatever the import's name; the name in a comment or a string is
// not (transport.Release).
package pi

import (
	"pasnet/internal/transport"
	t "pasnet/internal/transport"
)

func infer(frame []uint64) {
	transport.Release(frame) // want
	release := t.Release     // want
	release(frame)
	_ = "transport.Release(frame)"
}
