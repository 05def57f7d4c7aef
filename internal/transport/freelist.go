package transport

import "sync"

// Received KindUint64s frames are the share path's largest and most
// frequent allocation, so their word buffers are recycled: MemConn copies a
// sent frame into one and TCPConn decodes a received frame into one, and a
// consumer that is done with a received frame hands it back with Release.
// The free list keeps buffers by capacity, so a released buffer backs the
// next frame of exactly its length, and a miss allocates exactly the
// frame's length. It retains at most freeMaxBufs buffers and freeMaxWords
// words in all; past either bound a release evicts buffers of other
// lengths first, so the list follows the lengths in use.
const (
	freeMaxBufs  = 256
	freeMaxWords = 1 << 21 // 16 MiB
)

var free struct {
	sync.Mutex
	bufs  map[int][][]uint64 // by capacity, each at full length
	n     int                // buffers held
	words int                // words held
}

// takeWords returns a buffer of n words for a received frame: a released
// one of capacity n, or a new one. Its contents are undefined.
func takeWords(n int) []uint64 {
	if n > 0 {
		free.Lock()
		if s := free.bufs[n]; len(s) > 0 {
			buf := s[len(s)-1]
			s[len(s)-1] = nil
			free.bufs[n] = s[:len(s)-1]
			free.n--
			free.words -= n
			free.Unlock()
			return buf
		}
		free.Unlock()
	}
	return make([]uint64, n)
}

// Release hands a received KindUint64s frame's words back to the
// transport, which may give them to a later frame. The caller must not
// read or write xs, or any slice of the same memory, once it is released,
// and must release a frame at most once. Releasing a slice that did not
// come from a receive is harmless: it only joins the free list. A frame
// that is never released is left to the garbage collector.
func Release(xs []uint64) {
	c := cap(xs)
	if c == 0 || c > freeMaxWords {
		return
	}
	free.Lock()
	defer free.Unlock()
	for free.n >= freeMaxBufs || free.words+c > freeMaxWords {
		evictLocked(c)
	}
	if free.bufs == nil {
		free.bufs = make(map[int][][]uint64)
	}
	free.bufs[c] = append(free.bufs[c], xs[:c])
	free.n++
	free.words += c
}

// evictLocked drops one held buffer, of a capacity other than keep when
// there is one, so a release under the bounds keeps the newest lengths.
func evictLocked(keep int) {
	victim := keep
	for c, s := range free.bufs {
		if c != keep && len(s) > 0 {
			victim = c
			break
		}
	}
	s := free.bufs[victim]
	s[len(s)-1] = nil
	if s = s[:len(s)-1]; len(s) == 0 {
		delete(free.bufs, victim)
	} else {
		free.bufs[victim] = s
	}
	free.n--
	free.words -= victim
}
