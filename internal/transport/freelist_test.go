package transport

import (
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// Suite for the received-frame free list: a released buffer backs the
// next frame of its length on both links, retention stays within its
// bounds, a refused header takes nothing from it, a foreign slice is
// harmless, and concurrent takers and releasers stay race-free.

// resetFree empties the free list, so a test sees only its own buffers.
func resetFree(t *testing.T) {
	t.Helper()
	free.Lock()
	free.bufs, free.n, free.words = nil, 0, 0
	free.Unlock()
}

// held is how many buffers of capacity n the free list holds.
func held(n int) int {
	free.Lock()
	defer free.Unlock()
	return len(free.bufs[n])
}

func ramp(n int, base uint64) []uint64 {
	xs := make([]uint64, n)
	for i := range xs {
		xs[i] = base + uint64(i)*0x9e3779b97f4a7c15
	}
	return xs
}

func TestReleasedBufferBacksNextFrame(t *testing.T) {
	const n = 1237
	for _, tc := range []struct {
		name string
		pair func(t *testing.T) (Conn, Conn)
	}{
		{"MemConn", func(t *testing.T) (Conn, Conn) {
			a, b := Pipe()
			t.Cleanup(func() { a.Close(); b.Close() })
			return a, b
		}},
		{"TCPConn", func(t *testing.T) (Conn, Conn) {
			x, y := net.Pipe()
			t.Cleanup(func() { x.Close(); y.Close() })
			return NewTCPConn(x), NewTCPConn(y)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resetFree(t)
			a, b := tc.pair(t)
			send := func(xs []uint64) []uint64 {
				t.Helper()
				errc := make(chan error, 1)
				go func() { errc <- a.SendUint64s(xs) }()
				got, err := b.RecvUint64sMax(n)
				if err := <-errc; err != nil {
					t.Fatal(err)
				}
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, xs) {
					t.Fatalf("received words differ from the sent ones")
				}
				return got
			}
			first := send(ramp(n, 1))
			Release(first)
			if held(n) != 1 {
				t.Fatalf("free list holds %d buffers of %d words after a release, want 1", held(n), n)
			}
			second := send(ramp(n, 2))
			if &second[0] != &first[0] {
				t.Fatal("the next frame of the released buffer's length did not land in it")
			}
			if held(n) != 0 {
				t.Fatalf("free list still holds %d buffers of %d words after the frame took one", held(n), n)
			}
			// A frame of another length misses and gets exactly its length.
			other := send(ramp(n-1, 3))
			if cap(other) != n-1 {
				t.Fatalf("a missed frame of %d words has capacity %d", n-1, cap(other))
			}
		})
	}
}

func TestFreeListRetentionBound(t *testing.T) {
	t.Run("buffers", func(t *testing.T) {
		resetFree(t)
		for i := range freeMaxBufs + 40 {
			Release(make([]uint64, 1+i%7))
		}
		if free.n != freeMaxBufs {
			t.Fatalf("free list holds %d buffers after %d releases, bound %d", free.n, freeMaxBufs+40, freeMaxBufs)
		}
		// A new length evicts an old one: the newest release is kept.
		last := make([]uint64, 999)
		Release(last)
		if free.n > freeMaxBufs || held(999) != 1 {
			t.Fatalf("after a release past the bound: %d buffers held, %d of the new length", free.n, held(999))
		}
		if got := takeWords(999); &got[0] != &last[0] {
			t.Fatal("the newest release was evicted")
		}
	})
	t.Run("words", func(t *testing.T) {
		resetFree(t)
		big := freeMaxWords / 4
		for range 6 {
			Release(make([]uint64, big))
		}
		if free.words > freeMaxWords || held(big) != 4 {
			t.Fatalf("free list holds %d words in %d buffers of %d, bound %d words", free.words, held(big), big, freeMaxWords)
		}
		Release(make([]uint64, freeMaxWords+1))
		if held(freeMaxWords+1) != 0 {
			t.Fatal("a buffer over the whole word bound was kept")
		}
		sum := 0
		for c, s := range free.bufs {
			sum += c * len(s)
		}
		if sum != free.words {
			t.Fatalf("free list counts %d words, holds %d", free.words, sum)
		}
	})
}

// TestRefusedFrameTakesNoBuffer sends headers that admit refuses — over a
// bounded receive's maxElems, and over the kind's limit — and checks the
// decoder neither took the waiting buffer of the claimed length nor
// allocated one.
func TestRefusedFrameTakesNoBuffer(t *testing.T) {
	const n = 4096
	header := func(words uint32) []byte {
		return binary.LittleEndian.AppendUint32([]byte{KindUint64s}, 8*words)
	}
	for _, tc := range []struct {
		name     string
		hdr      []byte
		maxElems int
	}{
		{"over maxElems", header(n), n - 1},
		{"over the kind limit", header(maxFrameBytes/8 + 1), -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resetFree(t)
			Release(make([]uint64, n))
			buf := make([]byte, wireChunk)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := readFrame(bytes.NewReader(tc.hdr), buf, KindUint64s, tc.maxElems)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("the header was admitted")
			}
			if held(n) != 1 {
				t.Fatal("a refused frame took the waiting buffer")
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 4<<10 {
				t.Fatalf("a refused frame allocated %d B", got)
			}
		})
	}
}

func TestReleaseForeignSlice(t *testing.T) {
	resetFree(t)
	Release(nil)
	Release([]uint64{})
	if free.n != 0 {
		t.Fatalf("empty releases left %d buffers", free.n)
	}
	// A slice of a larger array is kept at its capacity and backs a frame
	// of that length in full.
	backing := make([]uint64, 64)
	Release(backing[:3])
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	want := ramp(64, 7)
	if err := a.SendUint64s(want); err != nil {
		t.Fatal(err)
	}
	got, err := b.RecvUint64s()
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &backing[0] || !slices.Equal(got, want) {
		t.Fatal("a released foreign slice did not carry the next frame of its capacity intact")
	}
}

// TestFreeListConcurrent takes, fills, checks and releases buffers from
// several goroutines, some over in-memory pipes; run it under -race.
func TestFreeListConcurrent(t *testing.T) {
	resetFree(t)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 300 {
				n := 1 + (g+i)%5
				buf := takeWords(n)
				for j := range buf {
					buf[j] = uint64(g<<32 | i)
				}
				for j := range buf {
					if buf[j] != uint64(g<<32|i) {
						t.Errorf("goroutine %d: buffer word changed under it", g)
						return
					}
				}
				Release(buf)
			}
		}()
	}
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, b := Pipe()
			defer a.Close()
			defer b.Close()
			for i := range 200 {
				want := ramp(1+i%5, uint64(g*1000+i))
				if err := a.SendUint64s(want); err != nil {
					t.Error(err)
					return
				}
				got, err := b.RecvUint64s()
				if err != nil || !slices.Equal(got, want) {
					t.Errorf("pipe %d frame %d: %v", g, i, err)
					return
				}
				Release(got)
			}
		}()
	}
	wg.Wait()
	if free.n > freeMaxBufs || free.words > freeMaxWords {
		t.Fatalf("free list over its bounds: %d buffers, %d words", free.n, free.words)
	}
}
