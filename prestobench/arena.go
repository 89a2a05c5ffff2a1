package main

import (
	"sync"
	"syscall"
)

// arenaSize is the address space a deferring checker reserves for the
// replies it holds. Pages are only backed once written.
const arenaSize = 1 << 30

// arena is off-heap storage for the replies a deferring checker holds
// until its phase ends. Held on the Go heap, they would raise the
// collector's target as the phase went on, and a closed loop would speed
// up with every reply it kept.
type arena struct {
	mu      sync.Mutex
	buf     []byte
	off     int
	spilled int // bytes kept on the heap because the arena was full
}

func newArena() (*arena, error) {
	buf, err := syscall.Mmap(-1, 0, arenaSize, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	return &arena{buf: buf}, nil
}

// keep returns a copy of b that stays valid until free, in the arena
// while it has room.
func (a *arena) keep(b []byte) []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.off+len(b) > len(a.buf) {
		a.spilled += len(b)
		return b
	}
	n := copy(a.buf[a.off:], b)
	out := a.buf[a.off : a.off+n : a.off+n]
	a.off += n
	return out
}

// free releases the arena; nothing kept in it may be used afterwards.
func (a *arena) free() error { return syscall.Munmap(a.buf) }
