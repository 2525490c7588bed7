package serve

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"solarpred/internal/experiments"
	"solarpred/internal/optimize"
)

// Endpoint names, used both as routes (under /v1) and as metric keys.
const (
	epHealth   = "healthz"
	epForecast = "forecast"
	epGrid     = "grid"
	epTune     = "tune"
	epStats    = "stats"
	epReset    = "reset"
)

// endpointNames lists every instrumented endpoint.
var endpointNames = []string{epHealth, epForecast, epGrid, epTune, epStats, epReset}

// computeEndpoints marks the endpoints that run store computations and
// therefore sit behind the admission bound and the request deadline.
var computeEndpoints = map[string]bool{epForecast: true, epGrid: true, epTune: true}

// Handler returns the daemon's HTTP API:
//
//	GET  /healthz                            liveness (also served while draining)
//	GET  /v1/forecast?site=&n=&horizon=      next-slot forecasts [&alpha=&d=&k=]
//	GET  /v1/grid?site=&n=                   full grid result [&ref=&alphas=&ds=&ks=]
//	GET  /v1/tune?site=&n=                   best / K=2 / guideline summary [&ref=...]
//	GET  /v1/stats                           store, flight, breaker and endpoint metrics
//	POST /v1/reset                           admin cache flush
//
// Every endpoint except /healthz rejects requests with 503 once
// BeginDrain has been called, so a load balancer sees the instance leave
// rotation while in-flight requests finish.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.instrument(epHealth, s.handleHealth))
	mux.HandleFunc("/v1/forecast", s.instrument(epForecast, s.handleForecast))
	mux.HandleFunc("/v1/grid", s.instrument(epGrid, s.handleGrid))
	mux.HandleFunc("/v1/tune", s.instrument(epTune, s.handleTune))
	mux.HandleFunc("/v1/stats", s.instrument(epStats, s.handleStats))
	mux.HandleFunc("/v1/reset", s.instrument(epReset, s.handleReset))
	return mux
}

// apiHandler produces a JSON-encodable value or an error.
type apiHandler func(r *http.Request) (any, error)

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// instrument wraps a handler with the endpoint's metrics bracket, the
// drain gate, the admission bound, the server-side request deadline and
// JSON encoding.
func (s *Service) instrument(name string, h apiHandler) http.HandlerFunc {
	m := s.metrics[name]
	compute := computeEndpoints[name]
	return func(w http.ResponseWriter, r *http.Request) {
		start := m.begin()
		clientCtx := r.Context()
		if s.draining.Load() && name != epHealth {
			m.end(start, true)
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: ErrDraining.Error()})
			return
		}
		if compute {
			// Admission bound: shed rather than queue without limit. The
			// backlog counts requests between admission and response, so
			// it bounds queued + computing work end to end. Increment
			// first and shed on the result — a load-then-add check would
			// let concurrent racers all pass the bound.
			n := s.backlog.Add(1)
			defer s.backlog.Add(-1)
			if s.maxBacklog > 0 && n > int64(s.maxBacklog) {
				m.shed.Add(1)
				m.end(start, true)
				writeError(w, http.StatusTooManyRequests,
					&RetryableError{Err: ErrShed, RetryAfter: time.Second})
				return
			}
			if s.requestTimeout > 0 {
				ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout)
				defer cancel()
				r = r.WithContext(ctx)
			}
		}
		v, err := h(r)
		m.end(start, err != nil)
		if err != nil {
			writeError(w, errorStatus(err, clientCtx), err)
			return
		}
		writeJSON(w, http.StatusOK, v)
	}
}

// errorStatus maps a handler error onto its HTTP status. clientCtx is
// the original request context (before the server deadline was
// attached), so a deadline blown server-side is distinguishable from a
// client that went away.
func errorStatus(err error, clientCtx context.Context) int {
	switch {
	case IsBadRequest(err):
		return http.StatusBadRequest
	case errors.Is(err, ErrShed):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrBreakerOpen), errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case clientCtx.Err() != nil:
		return 499 // client closed request
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// writeError encodes the error envelope, attaching a Retry-After header
// when the error carries a retry hint (shed, breaker open).
func writeError(w http.ResponseWriter, status int, err error) {
	var re *RetryableError
	if errors.As(err, &re) {
		secs := int(math.Ceil(re.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// writeJSON encodes v with the proper header and status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already out; nothing to recover
}

// healthBody is the /healthz response.
type healthBody struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

func (s *Service) handleHealth(r *http.Request) (any, error) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	return healthBody{Status: status, UptimeSeconds: s.Stats().UptimeSeconds}, nil
}

func (s *Service) handleForecast(r *http.Request) (any, error) {
	q := r.URL.Query()
	site := q.Get("site")
	n, err := intParam(q.Get("n"), "n", 48)
	if err != nil {
		return nil, err
	}
	horizon, err := intParam(q.Get("horizon"), "horizon", 1)
	if err != nil {
		return nil, err
	}
	params := experiments.GuidelineParams(n)
	if v := q.Get("alpha"); v != "" {
		if params.Alpha, err = floatParam(v, "alpha"); err != nil {
			return nil, err
		}
	}
	if v := q.Get("d"); v != "" {
		if params.D, err = intParam(v, "d", 0); err != nil {
			return nil, err
		}
	}
	if v := q.Get("k"); v != "" {
		if params.K, err = intParam(v, "k", 0); err != nil {
			return nil, err
		}
	}
	return s.Forecast(r.Context(), site, n, horizon, params)
}

func (s *Service) handleGrid(r *http.Request) (any, error) {
	site, n, space, ref, err := s.gridParams(r)
	if err != nil {
		return nil, err
	}
	return s.Grid(r.Context(), site, n, space, ref)
}

func (s *Service) handleTune(r *http.Request) (any, error) {
	site, n, space, ref, err := s.gridParams(r)
	if err != nil {
		return nil, err
	}
	return s.Tune(r.Context(), site, n, space, ref)
}

func (s *Service) handleStats(r *http.Request) (any, error) {
	return s.Stats(), nil
}

func (s *Service) handleReset(r *http.Request) (any, error) {
	if r.Method != http.MethodPost {
		return nil, badf("reset requires POST")
	}
	s.Reset()
	return map[string]string{"status": "reset"}, nil
}

// gridParams parses the (site, N, space, ref) tuple of a grid or tune
// request. The space defaults to the service configuration's and may be
// overridden per dimension with alphas=/ds=/ks= comma lists.
func (s *Service) gridParams(r *http.Request) (site string, n int, space optimize.Space, ref optimize.RefKind, err error) {
	q := r.URL.Query()
	site = q.Get("site")
	if n, err = intParam(q.Get("n"), "n", 48); err != nil {
		return
	}
	if ref, err = refParam(q.Get("ref")); err != nil {
		return
	}
	space = s.cfg.Space
	if v := q.Get("alphas"); v != "" {
		if space.Alphas, err = floatsParam(v, "alphas"); err != nil {
			return
		}
	}
	if v := q.Get("ds"); v != "" {
		if space.Ds, err = intsParam(v, "ds"); err != nil {
			return
		}
	}
	if v := q.Get("ks"); v != "" {
		if space.Ks, err = intsParam(v, "ks"); err != nil {
			return
		}
	}
	return
}

// refParam maps the ref query value onto a reference kind.
func refParam(v string) (optimize.RefKind, error) {
	switch v {
	case "", "mean":
		return optimize.RefSlotMean, nil
	case "start", "prime":
		return optimize.RefSlotStart, nil
	default:
		return 0, badf("ref=%q: want mean or start", v)
	}
}

// intParam parses an int query value with a default for the empty string.
func intParam(v, name string, def int) (int, error) {
	if v == "" {
		return def, nil
	}
	x, err := strconv.Atoi(v)
	if err != nil {
		return 0, badf("%s=%q: not an integer", name, v)
	}
	return x, nil
}

// floatParam parses a float query value.
func floatParam(v, name string) (float64, error) {
	x, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, badf("%s=%q: not a number", name, v)
	}
	return x, nil
}

// intsParam parses a comma-separated int list.
func intsParam(v, name string) ([]int, error) {
	parts := strings.Split(v, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		x, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, badf("%s=%q: element %q is not an integer", name, v, p)
		}
		out[i] = x
	}
	return out, nil
}

// floatsParam parses a comma-separated float list.
func floatsParam(v, name string) ([]float64, error) {
	parts := strings.Split(v, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		x, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, badf("%s=%q: element %q is not a number", name, v, p)
		}
		out[i] = x
	}
	return out, nil
}
