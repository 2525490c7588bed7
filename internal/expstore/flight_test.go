package expstore

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"solarpred/internal/optimize"
	"solarpred/internal/timeseries"
)

// call runs fn as key's flight through the store's flight map.
func call(ctx context.Context, s *Store, key string, fn work) (any, error) {
	return s.do(ctx, KindSeries, key, func() work { return fn })
}

// await yields until the store's flight counters satisfy cond.
func await(t *testing.T, s *Store, cond func(FlightStats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond(s.Flights()) {
		if time.Now().After(deadline) {
			t.Fatalf("flight counters stuck at %+v", s.Flights())
		}
		runtime.Gosched()
	}
}

func TestFlightCoalesces(t *testing.T) {
	s := New(synthTrace, nil)
	gate := make(chan struct{})
	var computes atomic.Int64
	const clients = 8
	var wg sync.WaitGroup
	results := make([]any, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = call(context.Background(), s, "tuple", func(context.Context) (any, error) {
				computes.Add(1)
				<-gate
				return 42, nil
			})
		}(i)
	}
	// Release the computation once every client has joined the flight.
	await(t, s, func(f FlightStats) bool { return f.Coalesced == clients-1 })
	close(gate)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("computations ran = %d, want 1", got)
	}
	if f := s.Flights(); f != (FlightStats{Computations: 1, Coalesced: clients - 1}) {
		t.Fatalf("flights = %+v, want 1 computation, %d coalesced, 0 in flight", f, clients-1)
	}
	if st := s.Stats().Series; st != (Counter{Hits: clients - 1, Misses: 1}) {
		t.Fatalf("series counter = %+v", st)
	}
	for i := 0; i < clients; i++ {
		if errs[i] != nil || results[i] != 42 {
			t.Fatalf("client %d: %v, %v", i, results[i], errs[i])
		}
	}
	// A finished flight answers from the map: no new computation, no join.
	if v, err := call(context.Background(), s, "tuple", nil); err != nil || v != 42 {
		t.Fatalf("hit on finished flight: %v, %v", v, err)
	}
	if f := s.Flights(); f.Computations != 1 || f.Coalesced != clients-1 {
		t.Fatalf("hit counted as a flight: %+v", f)
	}
}

func TestFlightDistinctKeysRunIndependently(t *testing.T) {
	s := New(synthTrace, nil)
	gate := make(chan struct{})
	var computes atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", i%3)
			v, err := call(context.Background(), s, key, func(context.Context) (any, error) {
				computes.Add(1)
				<-gate
				return key, nil
			})
			if err != nil || v != key {
				t.Errorf("%s: %v, %v", key, v, err)
			}
		}(i)
	}
	// Three keys, two callers each: three flights, three joins, all
	// computing at once.
	await(t, s, func(f FlightStats) bool { return f.Computations == 3 && f.Coalesced == 3 })
	if f := s.Flights(); f.InFlight != 3 {
		t.Fatalf("in flight = %d, want 3", f.InFlight)
	}
	close(gate)
	wg.Wait()
	if got := computes.Load(); got != 3 {
		t.Fatalf("computations = %d, want 3", got)
	}
}

func TestFlightErrorFansOut(t *testing.T) {
	s := New(synthTrace, nil)
	boom := errors.New("boom")
	gate := make(chan struct{})
	const clients = 4
	errCh := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func() {
			_, err := call(context.Background(), s, "bad", func(context.Context) (any, error) {
				<-gate
				return nil, boom
			})
			errCh <- err
		}()
	}
	await(t, s, func(f FlightStats) bool { return f.Coalesced == clients-1 })
	close(gate)
	for i := 0; i < clients; i++ {
		if err := <-errCh; !errors.Is(err, boom) {
			t.Fatalf("client %d: err = %v, want boom", i, err)
		}
	}
	if s.Len() != 0 {
		t.Fatalf("failed flight retained: %v", s.Keys())
	}
	// The flight is gone: a retry starts a fresh computation.
	v, err := call(context.Background(), s, "bad", func(context.Context) (any, error) { return "ok", nil })
	if err != nil || v != "ok" {
		t.Fatalf("retry after failed flight: %v, %v", v, err)
	}
	if f := s.Flights(); f.Computations != 2 {
		t.Fatalf("computations = %d, want 2", f.Computations)
	}
}

// TestFlightCallerContextCancelled: a caller whose context is already
// dead neither joins nor starts a flight, and the flight it asked for
// keeps running for its other waiter.
func TestFlightCallerContextCancelled(t *testing.T) {
	s := New(synthTrace, nil)
	gate := make(chan struct{})
	res := make(chan error, 1)
	go func() {
		_, err := call(context.Background(), s, "hold", func(context.Context) (any, error) { <-gate; return 1, nil })
		res <- err
	}()
	await(t, s, func(f FlightStats) bool { return f.InFlight == 1 })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, key := range []string{"hold", "fresh"} {
		if _, err := call(ctx, s, key, func(context.Context) (any, error) { return nil, nil }); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", key, err)
		}
	}
	if f := s.Flights(); f != (FlightStats{Computations: 1, InFlight: 1}) {
		t.Fatalf("dead caller touched the flights: %+v", f)
	}
	close(gate)
	if err := <-res; err != nil {
		t.Fatalf("live waiter: %v", err)
	}
}

// TestFlightPoolBound pins the compute bound: distinct flights never run
// more own work at once than the store has slots, and the slots are used
// to their full width.
func TestFlightPoolBound(t *testing.T) {
	const slots, keys = 2, 16
	s := New(synthTrace, nil)
	s.sem = make(chan struct{}, slots)
	var running, peak atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < keys; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := call(context.Background(), s, fmt.Sprintf("k%d", i), func(ctx context.Context) (any, error) {
				return s.bounded(ctx, func() (any, error) {
					n := running.Add(1)
					for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
					}
					started <- struct{}{}
					<-release
					running.Add(-1)
					return i, nil
				})
			}); err != nil {
				t.Errorf("k%d: %v", i, err)
			}
		}(i)
	}
	// Fill the slots, then free one per further start.
	for i := 0; i < slots; i++ {
		<-started
	}
	for i := slots; i < keys; i++ {
		release <- struct{}{}
		<-started
	}
	for i := 0; i < slots; i++ {
		release <- struct{}{}
	}
	wg.Wait()
	if p := peak.Load(); p != slots {
		t.Fatalf("peak concurrent work = %d, want %d", p, slots)
	}
	if f := s.Flights(); f.Computations != keys || f.InFlight != 0 {
		t.Fatalf("flights = %+v, want %d computations, 0 in flight", f, keys)
	}
}

// TestFlightAbandonQueued: a flight abandoned while it queues for a
// compute slot never starts its own work, leaves the map at once, and
// does not disturb the flight holding the slot.
func TestFlightAbandonQueued(t *testing.T) {
	s := New(synthTrace, nil)
	s.sem = make(chan struct{}, 1)
	holding := make(chan struct{})
	release := make(chan struct{})
	first := make(chan error, 1)
	go func() {
		_, err := call(context.Background(), s, "holder", func(ctx context.Context) (any, error) {
			return s.bounded(ctx, func() (any, error) {
				close(holding)
				<-release
				return 1, nil
			})
		})
		first <- err
	}()
	<-holding

	var ran atomic.Bool
	ctx, cancel := context.WithCancel(context.Background())
	queued := make(chan error, 1)
	go func() {
		_, err := call(ctx, s, "queued", func(fctx context.Context) (any, error) {
			return s.bounded(fctx, func() (any, error) {
				ran.Store(true)
				return 2, nil
			})
		})
		queued <- err
	}()
	await(t, s, func(f FlightStats) bool { return f.InFlight == 2 })
	cancel()
	if err := <-queued; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued caller err = %v, want context.Canceled", err)
	}
	await(t, s, func(f FlightStats) bool { return f.Abandoned == 1 && f.InFlight == 1 })
	if keys := s.Keys(); len(keys) != 1 || keys[0] != "holder" {
		t.Fatalf("keys after abandonment = %v, want [holder]", keys)
	}
	close(release)
	if err := <-first; err != nil {
		t.Fatalf("slot holder: %v", err)
	}
	if ran.Load() {
		t.Fatal("abandoned flight ran its work after leaving the queue")
	}
}

// TestFlightAbandonCancelsCompute: when every waiter's context ends, the
// flight's context is cancelled instead of the computation running to
// completion for nobody; a waiter that leaves while another still waits
// does not cancel it.
func TestFlightAbandonCancelsCompute(t *testing.T) {
	s := New(synthTrace, nil)
	cancelled := make(chan struct{})
	started := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := call(ctx, s, "doomed", func(fctx context.Context) (any, error) {
			close(started)
			<-fctx.Done()
			close(cancelled)
			return 1, nil // an abandoned flight fails whatever it returns
		})
		done <- err
	}()
	<-started
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("caller err = %v", err)
	}
	<-cancelled
	await(t, s, func(f FlightStats) bool { return f.Abandoned == 1 && f.InFlight == 0 })
	if s.Len() != 0 {
		t.Fatalf("abandoned flight retained: %v", s.Keys())
	}

	// Partial abandonment: a second waiter joins, then leaves first.
	gate := make(chan struct{})
	res := make(chan error, 1)
	go func() {
		_, err := call(context.Background(), s, "shared", func(fctx context.Context) (any, error) {
			select {
			case <-gate:
				return 1, nil
			case <-fctx.Done():
				return nil, fctx.Err()
			}
		})
		res <- err
	}()
	await(t, s, func(f FlightStats) bool { return f.InFlight == 1 })
	ctx2, cancel2 := context.WithCancel(context.Background())
	joined := make(chan error, 1)
	go func() {
		_, err := call(ctx2, s, "shared", nil)
		joined <- err
	}()
	await(t, s, func(f FlightStats) bool { return f.Coalesced == 1 })
	cancel2()
	if err := <-joined; !errors.Is(err, context.Canceled) {
		t.Fatalf("joined waiter err = %v", err)
	}
	close(gate)
	if err := <-res; err != nil {
		t.Fatalf("surviving waiter err = %v (flight was cancelled under it)", err)
	}
	if a := s.Flights().Abandoned; a != 1 {
		t.Fatalf("abandoned = %d after partial abandonment, want 1", a)
	}
}

// TestFlightPanic: a panic fails the flight with a *PanicError for every
// waiter, the flight is evicted, and a retry recomputes. A panic inside
// a dependency reaches the public accessors as an error, counted once.
func TestFlightPanic(t *testing.T) {
	s := New(synthTrace, nil)
	gate := make(chan struct{})
	const clients = 3
	errCh := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func() {
			_, err := call(context.Background(), s, "boom", func(context.Context) (any, error) {
				<-gate
				panic("kaboom")
			})
			errCh <- err
		}()
	}
	await(t, s, func(f FlightStats) bool { return f.Coalesced == clients-1 })
	close(gate)
	for i := 0; i < clients; i++ {
		var pe *PanicError
		if err := <-errCh; !errors.As(err, &pe) {
			t.Fatalf("client %d: err = %v, want *PanicError", i, err)
		} else if pe.Value != "kaboom" || len(pe.Stack) == 0 || !strings.Contains(pe.Error(), "kaboom") {
			t.Fatalf("panic error: %+v", pe)
		}
	}
	v, err := call(context.Background(), s, "boom", func(context.Context) (any, error) { return "ok", nil })
	if err != nil || v != "ok" {
		t.Fatalf("after panic: %v %v", v, err)
	}
	if f := s.Flights(); f.Panics != 1 || f.InFlight != 0 {
		t.Fatalf("flights = %+v, want 1 panic", f)
	}

	// Through the accessors: the series flight panics, the grid flight
	// above it fails with the same error.
	var calls atomic.Int64
	s = New(func(site string, days int) (*timeseries.Series, error) {
		if calls.Add(1) == 1 {
			panic("trace panic")
		}
		return synthTrace(site, days)
	}, nil)
	var pe *PanicError
	if _, err := s.Grid("A", 20, 24, testOpts(), testSpace(), optimize.RefSlotMean); !errors.As(err, &pe) {
		t.Fatalf("grid over a panicking trace: err = %v, want *PanicError", err)
	}
	if f := s.Flights(); f.Panics != 1 {
		t.Fatalf("panics = %d, want 1", f.Panics)
	}
	if _, err := s.Grid("A", 20, 24, testOpts(), testSpace(), optimize.RefSlotMean); err != nil {
		t.Fatalf("grid retry: %v", err)
	}
}

// TestFlightWaitDrains: Wait blocks until every started flight has
// finished, including one started while it waits.
func TestFlightWaitDrains(t *testing.T) {
	s := New(synthTrace, nil)
	gate1, gate2 := make(chan struct{}), make(chan struct{})
	results := make(chan error, 2)
	go func() {
		_, err := call(context.Background(), s, "one", func(context.Context) (any, error) { <-gate1; return 1, nil })
		results <- err
	}()
	await(t, s, func(f FlightStats) bool { return f.InFlight == 1 })
	waited := make(chan struct{})
	go func() {
		s.Wait()
		close(waited)
	}()
	go func() {
		_, err := call(context.Background(), s, "two", func(context.Context) (any, error) { <-gate2; return 2, nil })
		results <- err
	}()
	await(t, s, func(f FlightStats) bool { return f.InFlight == 2 })
	close(gate1)
	if err := <-results; err != nil {
		t.Fatal(err)
	}
	select {
	case <-waited:
		t.Fatal("Wait returned while a flight was still in progress")
	default:
	}
	close(gate2)
	if err := <-results; err != nil {
		t.Fatal(err)
	}
	<-waited
	if f := s.Flights(); f.InFlight != 0 {
		t.Fatalf("in flight after Wait = %d", f.InFlight)
	}
}

// TestFlightAbandonDuringWait: while Wait blocks, the only waiter of a
// flight giving up cancels it, which lets Wait return.
func TestFlightAbandonDuringWait(t *testing.T) {
	s := New(synthTrace, nil)
	started := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	res := make(chan error, 1)
	go func() {
		_, err := call(ctx, s, "slow", func(fctx context.Context) (any, error) {
			close(started)
			<-fctx.Done()
			return nil, fctx.Err()
		})
		res <- err
	}()
	<-started
	waited := make(chan struct{})
	go func() {
		s.Wait()
		close(waited)
	}()
	select {
	case <-waited:
		t.Fatal("Wait returned while a flight was still in progress")
	default:
	}
	cancel()
	if err := <-res; !errors.Is(err, context.Canceled) {
		t.Fatalf("caller err = %v, want context.Canceled", err)
	}
	<-waited
	if f := s.Flights(); f.Abandoned != 1 || f.InFlight != 0 {
		t.Fatalf("flights = %+v, want 1 abandoned, 0 in flight", f)
	}
}
