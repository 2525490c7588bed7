// Command solarpredd is the prediction daemon: the warm experiment store
// behind an HTTP/JSON API. It serves next-slot forecasts, grid-search
// and tuning queries over the configured site universe from one
// experiment store, whose flights coalesce concurrent queries for one
// tuple into a single computation, and drains gracefully on
// SIGTERM/SIGINT.
//
// Usage:
//
//	solarpredd                      # quick scale on :8080
//	solarpredd -addr :9000 -full    # paper scale (six sites, 365 days)
//	solarpredd -days 120
//	solarpredd -chaos spike         # soak mode: fault-injected traces
//
// Endpoints: GET /healthz, /v1/forecast?site=&n=&horizon=,
// /v1/grid?site=&n=, /v1/tune?site=&n=, /v1/stats; POST /v1/reset.
//
// Robustness: requests beyond -max-backlog are shed with 429; compute
// endpoints are bounded by -request-timeout (504 past the deadline);
// repeated failures per endpoint class open a circuit breaker (503 with
// Retry-After); slow-loris connections are cut by the -read-* timeouts.
// In -chaos mode every trace is corrupted by the named fault model on
// the way in, so the guard layer's detectors and degraded forecasts can
// be soaked end to end against a live daemon.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"solarpred/internal/dataset"
	"solarpred/internal/experiments"
	"solarpred/internal/expstore"
	"solarpred/internal/faults"
	"solarpred/internal/serve"
	"solarpred/internal/timeseries"
)

// options carries the parsed flag set into run.
type options struct {
	addr           string
	full           bool
	days           int
	drainTimeout   time.Duration
	requestTimeout time.Duration
	maxBacklog     int
	readHeader     time.Duration
	readTimeout    time.Duration
	idleTimeout    time.Duration
	chaos          string
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8080", "listen address")
	flag.BoolVar(&o.full, "full", false, "serve the paper-scale universe (six sites, 365 days) instead of the quick one")
	flag.IntVar(&o.days, "days", 0, "override the trace length in days")
	flag.DurationVar(&o.drainTimeout, "drain-timeout", 15*time.Second, "how long shutdown waits for in-flight requests")
	flag.DurationVar(&o.requestTimeout, "request-timeout", 30*time.Second, "server-side deadline per compute request (0 disables)")
	flag.IntVar(&o.maxBacklog, "max-backlog", 0, "admitted compute requests beyond which new ones are shed with 429 (0 = default, negative disables)")
	flag.DurationVar(&o.readHeader, "read-header-timeout", 5*time.Second, "http.Server ReadHeaderTimeout")
	flag.DurationVar(&o.readTimeout, "read-timeout", 15*time.Second, "http.Server ReadTimeout")
	flag.DurationVar(&o.idleTimeout, "idle-timeout", 120*time.Second, "http.Server IdleTimeout")
	flag.StringVar(&o.chaos, "chaos", "", "soak mode: corrupt traces with a fault model (dropout, stuck-at-zero, spike, gain-drift)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "solarpredd:", err)
		os.Exit(1)
	}
}

// chaosScenario resolves a -chaos flag value to its canonical fault
// scenario (the heavier variant when Scenarios lists two of one kind,
// so the soak actually stresses the detectors).
func chaosScenario(name string) (faults.Config, error) {
	want := strings.ToLower(strings.TrimSpace(name))
	var found faults.Config
	ok := false
	for _, sc := range faults.Scenarios() {
		if sc.Kind.String() == want {
			found, ok = sc, true // last wins: the heavier variant
		}
	}
	if !ok {
		return faults.Config{}, fmt.Errorf("unknown -chaos kind %q (want dropout, stuck-at-zero, spike or gain-drift)", name)
	}
	return found, nil
}

// chaosStore builds an experiment store that corrupts every trace with
// the chaos scenario (soak mode).
func chaosStore(cfg experiments.Config, chaos string) (*expstore.Store, error) {
	sc, err := chaosScenario(chaos)
	if err != nil {
		return nil, err
	}
	return expstore.New(func(site string, days int) (*timeseries.Series, error) {
		s, err := dataset.SiteByName(site)
		if err != nil {
			return nil, err
		}
		clean, err := dataset.GenerateDays(s, days)
		if err != nil {
			return nil, err
		}
		corrupted, report, err := faults.Inject(clean, sc)
		if err != nil {
			return nil, err
		}
		log.Printf("solarpredd: chaos %s on %s/%dd: %d/%d samples corrupted over %d episodes",
			sc.Kind, site, days, report.AffectedSamples, report.TotalSamples, report.Episodes)
		return corrupted, nil
	}, cfg.Ns), nil
}

func run(o options) error {
	cfg := experiments.QuickConfig()
	if o.full {
		cfg = experiments.DefaultConfig()
	}
	if o.days > 0 {
		cfg.Days = o.days
	}
	if o.chaos != "" {
		store, err := chaosStore(cfg, o.chaos)
		if err != nil {
			return err
		}
		cfg.Store = store
	}
	svc, err := serve.New(serve.Config{
		Exp:            cfg,
		RequestTimeout: o.requestTimeout,
		MaxBacklog:     o.maxBacklog,
	})
	if err != nil {
		return err
	}

	srv := &http.Server{
		Addr:              o.addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: o.readHeader,
		ReadTimeout:       o.readTimeout,
		IdleTimeout:       o.idleTimeout,
	}
	errCh := make(chan error, 1)
	go func() {
		mode := ""
		if o.chaos != "" {
			mode = fmt.Sprintf(", chaos=%s", o.chaos)
		}
		log.Printf("solarpredd: listening on %s (sites %v, %d days, N %v%s)",
			o.addr, cfg.Sites, cfg.Days, cfg.Ns, mode)
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
			return
		}
		errCh <- nil
	}()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	select {
	case err := <-errCh:
		// Listener failed before any signal (e.g. port in use).
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown: reject new requests (503 outside /healthz),
	// stop accepting connections, wait for in-flight requests, then
	// wait for the store's flights to finish.
	log.Printf("solarpredd: signal received, draining (timeout %s)", o.drainTimeout)
	svc.BeginDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errCh; err != nil {
		return err
	}
	svc.Close()
	log.Printf("solarpredd: drained cleanly")
	return nil
}
