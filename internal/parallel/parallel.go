// Package parallel provides the deterministic fork-join worker pool the
// read engine fans out on.
//
// The pool is deliberately minimal: a fixed number of workers pull task
// indexes from an atomic counter, so tasks start in index order and the
// caller writes results into pre-sized slots. Determinism is the
// caller's contract — each task must depend only on its own index (and
// pre-drawn per-task state such as a seeded rng.Source), never on
// execution order — and under that contract workers=1 and workers=N
// produce byte-identical results.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Resolve normalizes a worker-count option: n > 0 selects exactly n
// workers, 0 selects 1 (serial, the deterministic-by-construction
// default), and negative values select GOMAXPROCS.
func Resolve(n int) int {
	switch {
	case n > 0:
		return n
	case n < 0:
		return runtime.GOMAXPROCS(0)
	default:
		return 1
	}
}

// Run executes fn(0) .. fn(n-1) across at most workers goroutines and
// returns the error of the lowest-index failing task, or nil.
//
// With workers <= 1 the tasks run serially on the calling goroutine and
// Run returns at the first error, exactly like a plain loop. With more
// workers, tasks are dispatched in index order; once any task fails no
// new tasks are started (in-flight ones finish). Because tasks are
// deterministic functions of their index, the lowest failing index — and
// therefore the returned error — matches what the serial loop would
// have returned.
func Run(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup

		mu       sync.Mutex
		firstIdx = n
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if failed.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if i < firstIdx {
						firstIdx, firstErr = i, err
					}
					mu.Unlock()
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
