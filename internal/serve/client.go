package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"solarpred/internal/core"
)

// Client is a retrying HTTP client for the daemon's API, embodying the
// retry contract the server's shedding and breaker semantics assume: a
// 429 or 503 is retried after the server's Retry-After hint (or an
// exponential backoff with full jitter when the server gives none), a
// 504 or transport error is retried with backoff, and every other
// status is returned immediately. A node polling its forecast through
// this client rides out overload and breaker windows without
// contributing a retry storm.
type Client struct {
	// Base is the daemon's root URL, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTP is the transport; nil means http.DefaultClient.
	HTTP *http.Client
	// MaxRetries bounds retry attempts after the first try; 0 means 4.
	MaxRetries int
	// Backoff is the base backoff step; 0 means 100ms. Attempt i waits
	// a uniform random duration in [0, min(Backoff·2^i, 30s)] — full
	// jitter with a capped ceiling — unless the server sent a
	// Retry-After, which wins.
	Backoff time.Duration

	// sleep is injectable for tests; nil means a real timer.
	sleep func(context.Context, time.Duration) error

	mu  sync.Mutex
	rng *rand.Rand
}

// StatusError is a non-retryable (or retries-exhausted) HTTP failure.
type StatusError struct {
	Status int
	Body   string
}

// Error describes the failure.
func (e *StatusError) Error() string {
	return fmt.Sprintf("serve: status %d: %s", e.Status, e.Body)
}

// retryableStatus reports whether a status is worth retrying: shed,
// breaker/drain rejections and server-side deadline blowups.
func retryableStatus(status int) bool {
	return status == http.StatusTooManyRequests ||
		status == http.StatusServiceUnavailable ||
		status == http.StatusGatewayTimeout
}

// Forecast fetches a forecast through the retry loop.
func (c *Client) Forecast(ctx context.Context, site string, n, horizon int, params *core.Params) (*ForecastResult, error) {
	q := url.Values{}
	q.Set("site", site)
	q.Set("n", strconv.Itoa(n))
	q.Set("horizon", strconv.Itoa(horizon))
	if params != nil {
		q.Set("alpha", strconv.FormatFloat(params.Alpha, 'g', -1, 64))
		q.Set("d", strconv.Itoa(params.D))
		q.Set("k", strconv.Itoa(params.K))
	}
	var out ForecastResult
	if err := c.getJSON(ctx, "/v1/forecast?"+q.Encode(), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Stats fetches the service stats through the retry loop.
func (c *Client) Stats(ctx context.Context) (*StatsResult, error) {
	var out StatsResult
	if err := c.getJSON(ctx, "/v1/stats", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health fetches liveness without retries (a health probe that retries
// defeats its purpose).
func (c *Client) Health(ctx context.Context) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/healthz", nil)
	if err != nil {
		return false, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK, nil
}

// httpClient resolves the transport.
func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// getJSON runs one GET through the retry loop and decodes the response.
func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	maxRetries := c.MaxRetries
	if maxRetries <= 0 {
		maxRetries = 4
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		status, body, hint, err := c.once(ctx, path)
		switch {
		case err != nil:
			if ctx.Err() != nil {
				return err // the caller gave up; don't spin on its corpse
			}
			lastErr = err // transport failure: retryable
		case status == http.StatusOK:
			return json.Unmarshal(body, out)
		case !retryableStatus(status):
			return &StatusError{Status: status, Body: string(body)}
		default:
			lastErr = &StatusError{Status: status, Body: string(body)}
		}
		if attempt >= maxRetries {
			return lastErr
		}
		wait := c.backoff(attempt)
		if hint > 0 {
			wait = hint // the server knows its own recovery horizon
		}
		if err := c.sleepFor(ctx, wait); err != nil {
			return err
		}
	}
}

// once performs a single request, returning status, body and the
// response's Retry-After hint (0 when absent).
func (c *Client) once(ctx context.Context, path string) (int, []byte, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+path, nil)
	if err != nil {
		return 0, nil, 0, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, 0, err
	}
	return resp.StatusCode, body, parseRetryAfter(resp.Header.Get("Retry-After")), nil
}

// maxBackoff caps the jitter ceiling: past it, more doubling only
// delays recovery, and the shift below would overflow int64 for large
// user-set MaxRetries.
const maxBackoff = 30 * time.Second

// backoff draws the full-jitter wait for an attempt.
func (c *Client) backoff(attempt int) time.Duration {
	base := c.Backoff
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	shift := uint(attempt)
	if attempt > 30 {
		shift = 30
	}
	ceiling := base << shift
	if ceiling <= 0 || ceiling > maxBackoff {
		ceiling = maxBackoff
	}
	c.mu.Lock()
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	d := time.Duration(c.rng.Int63n(int64(ceiling) + 1))
	c.mu.Unlock()
	return d
}

// sleepFor waits, honoring the context.
func (c *Client) sleepFor(ctx context.Context, d time.Duration) error {
	if c.sleep != nil {
		return c.sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// parseRetryAfter parses a Retry-After header in seconds form.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}
