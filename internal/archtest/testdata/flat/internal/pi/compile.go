// Compile alone lowers the residual tree.
package pi

import "pasnet/internal/nn"

type block struct{ body, shortcut nn.Layer }

func compile(l nn.Layer) block {
	if r, ok := l.(*nn.Residual); ok {
		return block{body: r.Body, shortcut: r.Shortcut}
	}
	return block{}
}
