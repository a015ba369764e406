// Command rsd is the register-saturation analysis daemon: a long-running
// HTTP/JSON service over the batch engine, with a persistent
// fingerprint-keyed result store so exact results survive restarts and are
// shared across processes (see docs/SERVER.md).
//
// Usage:
//
//	rsd -addr :8735 -store /var/lib/rsd -corpus-root testdata
//	rsd -addr 127.0.0.1:0 -store ""          # ephemeral port, no persistence
//
// SIGTERM/SIGINT drain gracefully: /healthz flips to 503, new work is
// refused, in-flight requests finish (up to -drain), then the process
// exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"regsat/internal/obs"
	"regsat/internal/service"
	"regsat/internal/service/store"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "rsd:", err)
		os.Exit(1)
	}
}

// run boots the daemon and serves until ctx is cancelled (the signal
// handler in main, or the test harness). The "listening on" line goes to
// stdout so wrappers can discover an ephemeral port.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("rsd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", ":8735", "listen address (host:port; port 0 picks one)")
		storeDir    = fs.String("store", "", "persistent result store directory (empty = no persistence)")
		corpusRoot  = fs.String("corpus-root", "", "directory corpus references resolve under (empty = disabled)")
		inflight    = fs.Int("inflight", 0, "max concurrently executing requests (0 = GOMAXPROCS)")
		queue       = fs.Int("queue", service.DefaultMaxQueue, "max requests waiting for a slot before shedding with 429")
		workers     = fs.Int("workers", 0, "batch workers per request (0 = GOMAXPROCS)")
		timeout     = fs.Duration("timeout", 60*time.Second, "default per-request deadline")
		maxTimeout  = fs.Duration("max-timeout", 10*time.Minute, "upper clamp on requested deadlines")
		maxBody     = fs.Int64("max-body", 16<<20, "request body size limit (bytes)")
		cacheSize   = fs.Int("cache", 0, "in-memory result memo entries (0 = default)")
		drain       = fs.Duration("drain", 30*time.Second, "graceful shutdown budget for in-flight requests")
		drainNotice = fs.Duration("drain-notice", 2*time.Second, "how long /healthz answers 503 before the listener closes (load-balancer deregistration window)")
		peers       = fs.String("peers", "", "comma-separated base URLs of every fleet replica, including this one (empty = single-process)")
		self        = fs.String("self", "", "this replica's own entry in -peers (required with -peers)")
		vnodes      = fs.Int("vnodes", 0, "consistent-hash virtual nodes per replica (0 = default; must match across the fleet and its clients)")
		traceSample = fs.Float64("trace-sample", 0, "fraction of requests to trace (0..1; requests carrying a traceparent or asking via \"trace\" are always recorded)")
		traceRing   = fs.Int("trace-ring", 0, "traces retained for GET /v1/trace/{id} (0 = default)")
		traceSpans  = fs.Int("trace-spans", 0, "spans retained per trace (0 = default)")
		enablePprof = fs.Bool("pprof", false, "mount /debug/pprof/ profiling endpoints")
		logLevel    = fs.String("log-level", "info", "minimum log level: debug, info, warn, error")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h/-help: usage already printed, exit 0
		}
		return err
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("bad -log-level %q: %w", *logLevel, err)
	}
	// JSON records on stderr: machine-parseable, one request's records
	// joined by the requestId/traceId fields the service layer attaches.
	logger := slog.New(slog.NewJSONHandler(stderr, &slog.HandlerOptions{Level: level}))

	svc := "rsd"
	if *self != "" {
		svc = *self
	}
	tracer := obs.NewTracer(obs.Config{
		Service:    svc,
		SampleRate: *traceSample,
		RingTraces: *traceRing,
		RingSpans:  *traceSpans,
	})

	cfg := service.Config{
		CorpusRoot:     *corpusRoot,
		MaxInFlight:    *inflight,
		MaxQueue:       *queue,
		Workers:        *workers,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		MaxBodyBytes:   *maxBody,
		CacheSize:      *cacheSize,
		Logger:         logger,
		Tracer:         tracer,
		EnablePprof:    *enablePprof,
		Self:           *self,
		VNodes:         *vnodes,
	}
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				cfg.Peers = append(cfg.Peers, p)
			}
		}
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			return err
		}
		cfg.Store = st
		logger.Info("result store opened", "dir", st.Dir())
	}
	srv, err := service.New(cfg)
	if err != nil {
		return err
	}
	if len(cfg.Peers) > 0 {
		logger.Info("cluster mode", "self", *self, "peers", cfg.Peers)
	}
	if *enablePprof {
		logger.Info("pprof enabled at /debug/pprof/")
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "rsd: listening on %s\n", ln.Addr())

	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ErrorLog:          slog.NewLogLogger(logger.Handler(), slog.LevelWarn),
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Drain: flip health first and keep the listener open for the notice
	// window, so load balancers observe the 503 and deregister this
	// instance before connections start being refused; then let in-flight
	// requests finish within the budget.
	logger.Info("draining", "notice", *drainNotice, "budget", *drain)
	srv.SetDraining(true)
	if *drainNotice > 0 {
		select {
		case <-time.After(*drainNotice):
		case err := <-errc:
			return err
		}
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("drain incomplete: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Info("drained, bye")
	return nil
}
