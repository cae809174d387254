// Package recycle keeps bounded free lists of scratch storage that a
// garbage collection may still reclaim.
//
// A reaction's tables scale with the tube, and the next reaction over
// the same tube needs tables of the same size again. A List lets it
// take back what the last one put down without pinning it: entries are
// weak pointers, so an item nobody took back is freed by the next
// collection exactly as if it had been dropped. A sync.Pool would save
// the same bytes, but its victim cache survives one collection, so the
// scratch of finished reactions would still count as live heap right
// after a forced collection.
package recycle

import (
	"sync"
	"weak"
)

// Max bounds the entries a List holds; Put drops items past it. It is
// sized so one list can take back every record segment a reaction over
// an aged 13k-species tube releases (23 of 1024 records each), with
// room to spare: a smaller bound drops the rest, and the next reaction
// allocates them anew.
const Max = 32

// List is a bounded free list of *T. The zero value is an empty list
// ready to use; it is safe for concurrent use. Its entries live in the
// List itself, so a package-level List allocates nothing but the weak
// pointers.
type List[T any] struct {
	mu    sync.Mutex
	n     int
	items [Max]weak.Pointer[T]
}

// Get returns the most recently put item that has not been collected,
// or nil when there is none. Entries whose items were collected are
// skipped and forgotten.
func (l *List[T]) Get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.n > 0 {
		l.n--
		x := l.items[l.n].Value()
		l.items[l.n] = weak.Pointer[T]{}
		if x != nil {
			return x
		}
	}
	return nil
}

// Put hands x back for reuse; the caller must not touch it afterwards.
// A full list first forgets its collected entries, and drops x if none
// were.
func (l *List[T]) Put(x *T) {
	if x == nil {
		return
	}
	w := weak.Make(x)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n == Max {
		live := 0
		for i := range l.items {
			if l.items[i].Value() != nil {
				l.items[live] = l.items[i]
				live++
			}
		}
		clear(l.items[live:])
		l.n = live
		if l.n == Max {
			return
		}
	}
	l.items[l.n] = w
	l.n++
}
