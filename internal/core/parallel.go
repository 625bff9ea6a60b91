package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ParallelFor runs fn(worker, i) for every i in [0, n) on at most workers
// goroutines (workers <= 0 means GOMAXPROCS). Indices are handed out by an
// atomic counter, so the work distribution is dynamic; worker identifies
// which goroutine runs the call (0 <= worker < effective worker count), so
// callers can give each worker private scratch state. The first error
// stops new work from being claimed and is returned; with one worker the
// loop runs inline on the calling goroutine, in index order, with no
// goroutines spawned.
//
// ParallelFor is the experiment orchestrator's job pool (candidate
// evaluation has its own pipeline): callers whose fn is pure (or writes
// only to its own index) get results independent of worker count and
// scheduling order.
func ParallelFor(n, workers int, fn func(worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next    atomic.Int64
		failed  atomic.Bool
		wg      sync.WaitGroup
		errOnce sync.Once
		jobErr  error
	)
	fail := func(err error) {
		errOnce.Do(func() { jobErr = err })
		failed.Store(true)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if err := fn(worker, i); err != nil {
					fail(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return jobErr
}
