// Package parallel provides the goroutine-parallel execution primitives the
// simulator uses: a blocked and a dynamically scheduled parallel-for over
// index ranges, the round-level worker-count convention, and deterministic
// seed derivation (so that parallel sweeps remain reproducible from a
// single seed regardless of scheduling).
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// StepperWorkers normalizes a stepper's round-level Workers field: any
// value below 1 — in particular the zero value of a stepper constructed
// without an explicit worker count — selects the serial path. Round-level
// parallelism is an explicit opt-in, unlike the pool-level convention where
// 0 means GOMAXPROCS: a stepper embedded in a unit-parallel sweep must not
// silently oversubscribe the machine just because nobody set the field.
func StepperWorkers(w int) int {
	if w < 1 {
		return 1
	}
	return w
}

// For runs body(i) for every i in [0, n) across at most workers goroutines,
// blocking until all iterations complete. workers ≤ 0 selects GOMAXPROCS.
// Iterations are distributed in contiguous blocks to keep cache locality on
// the load vectors.
func For(n, workers int, body func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	var wg sync.WaitGroup
	block := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * block
		hi := lo + block
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				body(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// ForDynamic runs body(i) for every i in [0, n) across at most workers
// goroutines, handing out indices one at a time from a shared counter.
// Unlike For's contiguous blocks, this keeps all workers busy when
// iteration costs are wildly uneven (e.g. batch run units whose simulated
// rounds differ by orders of magnitude). workers ≤ 0 selects GOMAXPROCS.
func ForDynamic(n, workers int, body func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				body(i)
			}
		}()
	}
	wg.Wait()
}

// splitmix64 advances the state and returns the next output of the
// SplitMix64 generator; the standard way to expand one seed into many.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// DeriveSeed deterministically derives the i-th child seed from a parent
// seed, so that every unit of a parallel sweep draws from its own stream
// and the sweep stays reproducible from one seed whatever the scheduling.
func DeriveSeed(parent int64, i int) int64 {
	x := uint64(parent) ^ (uint64(i)+1)*0x9e3779b97f4a7c15
	return int64(splitmix64(&x))
}
