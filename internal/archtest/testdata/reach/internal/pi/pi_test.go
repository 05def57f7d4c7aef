// A test import is not a serving dependency.
package pi

import "pasnet/internal/ot"

var _ = ot.Transfer
