package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// ErrDraining is returned for work submitted after shutdown began.
var ErrDraining = errors.New("serve: draining, not accepting new work")

// PanicError is the error a batcher flight's waiters receive when the
// computation panicked. The panic is contained to the flight: the value
// and stack are captured here, the flight is evicted (a retry
// recomputes), and the worker pool survives.
type PanicError struct {
	Value any
	Stack []byte
}

// Error describes the recovered panic.
func (e *PanicError) Error() string {
	return fmt.Sprintf("serve: computation panicked: %v", e.Value)
}

// Stages carries the timestamps of one request's trip through the
// batcher: when it was enqueued, when the computation serving it started
// (its own, or the in-flight one it joined), and when the result fanned
// out. The queue and compute latencies the endpoint metrics aggregate
// come straight from these.
type Stages struct {
	Enqueued   time.Time
	Dispatched time.Time
	Done       time.Time
	// Coalesced marks a request served by joining a computation another
	// request had already initiated.
	Coalesced bool
}

// call is one in-flight computation for a key. The computing goroutine
// writes val, err, dispatched and finished before closing done, so
// waiters read them without the lock once done is closed. waiters and
// the map entry are guarded by Batcher.mu.
type call struct {
	done       chan struct{}
	val        any
	err        error
	dispatched time.Time
	finished   time.Time
	waiters    int
	cancel     context.CancelFunc
}

// Batcher coalesces concurrent requests for the same key into one
// computation. A key → call map guarded by one mutex holds the flights:
// the first Submit for a key starts its computation on a pool bounded by
// a semaphore, later Submits for the same key join it and wait on the
// same done channel. The key is forgotten as soon as the computation
// finishes — a failed or panicked flight is answered to every waiter and
// a retry recomputes; memoisation is the store's job, not the batcher's.
//
// Each flight's computation receives a context that is cancelled once
// its last waiter has abandoned it (their request contexts expired), so
// an abandoned computation stops burning a pool slot instead of running
// to completion for nobody. A computation that panics answers its
// waiters with a *PanicError and the pool slot is released.
//
// The batcher sits in front of the store deliberately: expstore's own
// single flight already deduplicates concurrent computations, but the
// batcher bounds how many store computations run at once (the store
// admits unlimited distinct keys), makes them cancellable, stamps every
// request's queue and compute stages for the endpoint metrics, and gives
// shutdown a single place to drain — Close stops admissions and blocks
// until every in-flight computation has answered its waiters.
type Batcher struct {
	sem     chan struct{}
	flights sync.WaitGroup

	mu      sync.Mutex
	calls   map[string]*call
	closing bool

	computations atomic.Uint64
	coalesced    atomic.Uint64
	panics       atomic.Uint64
	abandoned    atomic.Uint64
}

// BatcherStats is a snapshot of the batcher's counters.
type BatcherStats struct {
	// Computations is the number of computations dispatched.
	Computations uint64 `json:"computations"`
	// Coalesced is the number of requests served by joining an in-flight
	// computation instead of dispatching their own.
	Coalesced uint64 `json:"coalesced"`
	// InFlight is the number of keys currently computing.
	InFlight int64 `json:"in_flight"`
	// Panics is the number of computations that panicked (contained and
	// fanned out as *PanicError).
	Panics uint64 `json:"panics"`
	// Abandoned is the number of flights whose waiters all timed out
	// before the result arrived; their computations were cancelled.
	Abandoned uint64 `json:"abandoned"`
}

// NewBatcher returns a batcher whose compute pool runs at most workers
// computations concurrently (workers must be ≥ 1). Stop it with Close.
func NewBatcher(workers int) *Batcher {
	return &Batcher{
		sem:   make(chan struct{}, workers),
		calls: make(map[string]*call),
	}
}

// Submit runs compute under the batcher's coalescing semantics and
// returns its result with the request's stage timestamps. Concurrent
// Submits for the same key share one computation. Submit fails with
// ErrDraining once Close has begun and with ctx.Err() if the caller's
// context expires first; when the last waiter of a flight gives up this
// way, the computation's context is cancelled and the flight counts as
// abandoned.
func (b *Batcher) Submit(ctx context.Context, key string, compute func(context.Context) (any, error)) (any, Stages, error) {
	enqueued := time.Now()
	b.mu.Lock()
	if b.closing {
		b.mu.Unlock()
		return nil, Stages{}, ErrDraining
	}
	if err := ctx.Err(); err != nil {
		b.mu.Unlock()
		return nil, Stages{}, err
	}
	c, joined := b.calls[key]
	if joined {
		c.waiters++
		b.coalesced.Add(1)
	} else {
		fctx, cancel := context.WithCancel(context.Background())
		c = &call{done: make(chan struct{}), waiters: 1, cancel: cancel}
		b.calls[key] = c
		b.computations.Add(1)
		b.flights.Add(1)
		go b.run(fctx, key, c, compute)
	}
	b.mu.Unlock()

	select {
	case <-c.done:
		return c.val, Stages{Enqueued: enqueued, Dispatched: c.dispatched, Done: c.finished, Coalesced: joined}, c.err
	case <-ctx.Done():
		b.mu.Lock()
		c.waiters--
		// A flight that already left the map has answered; there is
		// nothing left to cancel.
		if c.waiters == 0 && b.calls[key] == c {
			b.abandoned.Add(1)
			c.cancel()
		}
		b.mu.Unlock()
		return nil, Stages{}, ctx.Err()
	}
}

// Close stops admitting new work and blocks until every in-flight
// computation has completed and answered its waiters. It is idempotent.
func (b *Batcher) Close() {
	b.mu.Lock()
	b.closing = true
	b.mu.Unlock()
	b.flights.Wait()
}

// Stats snapshots the batcher's counters.
func (b *Batcher) Stats() BatcherStats {
	b.mu.Lock()
	inFlight := len(b.calls)
	b.mu.Unlock()
	return BatcherStats{
		Computations: b.computations.Load(),
		Coalesced:    b.coalesced.Load(),
		InFlight:     int64(inFlight),
		Panics:       b.panics.Load(),
		Abandoned:    b.abandoned.Load(),
	}
}

// run executes one flight's computation on the bounded pool, forgets the
// key and answers every waiter. A panic inside compute is contained by
// safeCompute, so the slot is always released.
func (b *Batcher) run(ctx context.Context, key string, c *call, compute func(context.Context) (any, error)) {
	defer b.flights.Done()
	b.sem <- struct{}{}
	c.dispatched = time.Now()
	c.val, c.err = b.safeCompute(ctx, compute)
	<-b.sem
	b.mu.Lock()
	delete(b.calls, key)
	b.mu.Unlock()
	c.cancel()
	c.finished = time.Now()
	close(c.done)
}

// safeCompute runs compute, converting a panic into a *PanicError.
func (b *Batcher) safeCompute(ctx context.Context, compute func(context.Context) (any, error)) (val any, err error) {
	defer func() {
		if r := recover(); r != nil {
			b.panics.Add(1)
			err = &PanicError{Value: r, Stack: debug.Stack()}
			val = nil
		}
	}()
	return compute(ctx)
}
