// The declaration is not a use; the free list's own package names it freely.
package transport

func Release(xs []uint64) {}

func readFrame(xs []uint64) { Release(xs) }
