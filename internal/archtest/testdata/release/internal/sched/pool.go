// Another package's own Release is not the transport's.
package sched

type pool struct{}

func (pool) Release(xs []uint64) {}

func Release(p pool, xs []uint64) { p.Release(xs) }
