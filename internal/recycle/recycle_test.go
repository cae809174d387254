package recycle

import (
	"runtime"
	"sync"
	"testing"
)

type buf struct{ b []byte }

func TestGetReturnsPutItem(t *testing.T) {
	var l List[buf]
	if l.Get() != nil {
		t.Fatal("empty list returned an item")
	}
	a, b := &buf{make([]byte, 8)}, &buf{make([]byte, 16)}
	l.Put(a)
	l.Put(b)
	if got := l.Get(); got != b {
		t.Errorf("first Get = %p, want the last put %p", got, b)
	}
	if got := l.Get(); got != a {
		t.Errorf("second Get = %p, want %p", got, a)
	}
	if l.Get() != nil {
		t.Error("drained list returned an item")
	}
	runtime.KeepAlive(a)
	runtime.KeepAlive(b)
}

// TestCollectedItemsAreSkipped pins the weak hold: an item nobody
// took back does not survive a collection.
func TestCollectedItemsAreSkipped(t *testing.T) {
	var l List[buf]
	for i := 0; i < Max; i++ {
		l.Put(&buf{make([]byte, 1<<10)})
	}
	runtime.GC()
	if got := l.Get(); got != nil {
		t.Errorf("Get after a collection returned %p, want nil", got)
	}
}

func TestPutBounded(t *testing.T) {
	var l List[buf]
	keep := make([]*buf, Max+3)
	for i := range keep {
		keep[i] = &buf{make([]byte, 4)}
		l.Put(keep[i])
	}
	n := 0
	for l.Get() != nil {
		n++
	}
	if n != Max {
		t.Errorf("list held %d items, want %d", n, Max)
	}
	// A full list of collected entries makes room for a live one.
	for i := 0; i < Max; i++ {
		l.Put(&buf{make([]byte, 4)})
	}
	runtime.GC()
	x := &buf{}
	l.Put(x)
	if got := l.Get(); got != x {
		t.Errorf("Get = %p, want %p", got, x)
	}
	runtime.KeepAlive(keep)
}

func TestConcurrentUse(t *testing.T) {
	var l List[buf]
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				x := l.Get()
				if x == nil {
					x = &buf{make([]byte, 64)}
				}
				x.b[0]++
				l.Put(x)
			}
		}()
	}
	wg.Wait()
}
