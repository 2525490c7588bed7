package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"solarpred/internal/core"
	"solarpred/internal/timeseries"
)

// scriptedClient builds a Client over a handler with a recording fake
// sleeper, so retry timing is observable and instant.
func scriptedClient(t *testing.T, h http.HandlerFunc) (*Client, *[]time.Duration) {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	sleeps := &[]time.Duration{}
	c := &Client{
		Base:    ts.URL,
		Backoff: 80 * time.Millisecond,
		sleep: func(ctx context.Context, d time.Duration) error {
			*sleeps = append(*sleeps, d)
			return ctx.Err()
		},
	}
	return c, sleeps
}

func TestClientHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	c, sleeps := scriptedClient(t, func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "3")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"open"}`)
			return
		}
		fmt.Fprint(w, `{"uptime_seconds": 1}`)
	})
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.UptimeSeconds != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if calls.Load() != 3 {
		t.Fatalf("calls = %d, want 3", calls.Load())
	}
	if len(*sleeps) != 2 || (*sleeps)[0] != 3*time.Second || (*sleeps)[1] != 3*time.Second {
		t.Fatalf("sleeps = %v, want two 3s waits from Retry-After", *sleeps)
	}
}

func TestClientBackoffJitterWithoutHint(t *testing.T) {
	var calls atomic.Int64
	c, sleeps := scriptedClient(t, func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 3 {
			w.WriteHeader(http.StatusTooManyRequests) // no Retry-After
			return
		}
		fmt.Fprint(w, `{"uptime_seconds": 1}`)
	})
	if _, err := c.Stats(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(*sleeps) != 3 {
		t.Fatalf("sleeps = %v, want 3", *sleeps)
	}
	for i, d := range *sleeps {
		ceiling := c.Backoff << uint(i)
		if d < 0 || d > ceiling {
			t.Fatalf("sleep %d = %v beyond jitter ceiling %v", i, d, ceiling)
		}
	}
}

// TestClientBackoffCeilingClamped: large attempt numbers (user-set
// MaxRetries beyond the int64 shift range) must neither overflow into a
// negative jitter ceiling (rand.Int63n panics) nor exceed maxBackoff.
func TestClientBackoffCeilingClamped(t *testing.T) {
	c := &Client{}
	for _, attempt := range []int{0, 20, 33, 40, 64, 1 << 20} {
		d := c.backoff(attempt) // must not panic
		if d < 0 || d > maxBackoff {
			t.Fatalf("backoff(%d) = %v, want in [0, %v]", attempt, d, maxBackoff)
		}
	}
	// A huge user Backoff overflows even at a clamped shift; still capped.
	big := &Client{Backoff: 4 * time.Hour}
	for _, attempt := range []int{25, 40} {
		d := big.backoff(attempt)
		if d < 0 || d > maxBackoff {
			t.Fatalf("big backoff(%d) = %v, want in [0, %v]", attempt, d, maxBackoff)
		}
	}
}

func TestClientNoRetryOnClientError(t *testing.T) {
	var calls atomic.Int64
	c, sleeps := scriptedClient(t, func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"error":"bad"}`)
	})
	_, err := c.Forecast(context.Background(), "NOPE", 48, 1, nil)
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want 400 StatusError", err)
	}
	if calls.Load() != 1 || len(*sleeps) != 0 {
		t.Fatalf("calls = %d sleeps = %v, want exactly one attempt", calls.Load(), *sleeps)
	}
}

func TestClientRetriesExhausted(t *testing.T) {
	var calls atomic.Int64
	c, sleeps := scriptedClient(t, func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusGatewayTimeout)
		fmt.Fprint(w, `{"error":"deadline"}`)
	})
	c.MaxRetries = 2
	_, err := c.Stats(context.Background())
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusGatewayTimeout {
		t.Fatalf("err = %v, want 504 StatusError", err)
	}
	if calls.Load() != 3 || len(*sleeps) != 2 {
		t.Fatalf("calls = %d sleeps = %d, want 3 attempts / 2 waits", calls.Load(), len(*sleeps))
	}
}

func TestClientTransportErrorRetried(t *testing.T) {
	// A server that dies after the first response: the transport error
	// on the second attempt is retried until retries exhaust.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	base := ts.URL
	ts.Close() // now every dial fails
	var sleeps []time.Duration
	c := &Client{
		Base:       base,
		MaxRetries: 1,
		sleep: func(ctx context.Context, d time.Duration) error {
			sleeps = append(sleeps, d)
			return nil
		},
	}
	if _, err := c.Stats(context.Background()); err == nil {
		t.Fatal("expected transport error")
	}
	if len(sleeps) != 1 {
		t.Fatalf("sleeps = %v, want one backoff before the final attempt", sleeps)
	}
}

func TestClientContextCancelledStopsRetrying(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c, _ := scriptedClient(t, func(w http.ResponseWriter, r *http.Request) {
		cancel() // the caller gives up while the server keeps shedding
		w.WriteHeader(http.StatusTooManyRequests)
	})
	if _, err := c.Stats(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestClientAgainstService drives the retrying client against the real
// service through an overload window: requests shed with 429 while the
// pool is wedged succeed transparently once it frees up.
func TestClientAgainstService(t *testing.T) {
	leakCheck(t)
	gate := make(chan struct{})
	released := make(chan struct{})
	var wedge atomic.Bool
	wedge.Store(true)
	svc := chaosService(t, func(site string, days int) (*timeseries.Series, error) {
		if wedge.Load() {
			<-gate
		}
		return cleanTrace(site, days)
	}, func(c *Config) {
		c.MaxBacklog = 1
	})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)

	// Wedge the pool with one admitted request.
	go func() {
		getJSON(t, fmt.Sprintf("%s/v1/forecast?site=SPMD&n=24&horizon=1", ts.URL), nil)
		close(released)
	}()
	for svc.backlog.Load() < 1 {
		time.Sleep(time.Millisecond)
	}

	c := &Client{
		Base:       ts.URL,
		MaxRetries: 8,
		sleep: func(ctx context.Context, d time.Duration) error {
			// First shed observed: unwedge the service, then wait until
			// the wedged request has answered and left the backlog, so
			// the retry finds the admission slot free.
			wedge.Store(false)
			select {
			case <-gate:
			default:
				close(gate)
			}
			select {
			case <-released:
			case <-ctx.Done():
				return ctx.Err()
			}
			for svc.backlog.Load() != 0 {
				time.Sleep(time.Millisecond)
			}
			return nil
		},
	}
	params := core.Params{Alpha: 0.5, D: 5, K: 2}
	got, err := c.Forecast(context.Background(), "NPCS", 24, 2, &params)
	if err != nil {
		t.Fatalf("client forecast through overload: %v", err)
	}
	if got.Site != "NPCS" || len(got.Watts) != 2 || got.Params.Alpha != 0.5 {
		t.Fatalf("forecast = %+v", got)
	}
	<-released

	ok, err := c.Health(context.Background())
	if err != nil || !ok {
		t.Fatalf("health = %v %v", ok, err)
	}
}
