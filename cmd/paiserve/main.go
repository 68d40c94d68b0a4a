// Command paiserve runs the evaluation-as-a-service daemon: a persistent
// HTTP server that accepts streamed NDJSON trace uploads per tenant, folds
// every evaluated job into a sliding ring of live time-window sinks (a late
// job is one add into its window), and serves live reports, framed sink
// snapshots (consumable by paibench -merge) and service metrics.
//
// Usage:
//
//	paiserve [-addr :8077] [-window 15m] [-windows 8]
//	         [-backend name] [-par N] [-cache N] [-cache-bytes N]
//	         [-max-upload-bytes N] [-tenant-uploads N] [-max-tenants N]
//	         [-state-dir DIR] [-drain-timeout 30s]
//
// Endpoints:
//
//	POST /v1/tenants/{id}/traces    streamed NDJSON upload
//	GET  /v1/tenants/{id}/report    live report (?window=15m, ?format=json)
//	GET  /v1/tenants/{id}/snapshot  framed sink snapshot download
//	GET  /healthz  GET /version  GET /metrics
//
// On SIGTERM (or interrupt) the daemon drains gracefully: in-flight uploads
// finish (bounded by -drain-timeout), each tenant's windows are folded and
// flushed to -state-dir as one framed snapshot, and the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	pai "repro"
	"repro/internal/serve"
	"repro/internal/version"
)

// readHeaderTimeout bounds how long a client may take to send its request
// headers, and idleTimeout how long a keep-alive connection may sit unused,
// so a client that never finishes a request cannot hold a connection
// forever. Request bodies get no read deadline: uploads stream for as long
// as the trace lasts.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "paiserve:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("paiserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8077", "listen address (host:port; :0 picks a free port)")
	windowWidth := fs.Duration("window", 15*time.Minute, "time-window width")
	windowCount := fs.Int("windows", 8, "ring capacity in windows")
	backendName := fs.String("backend", "analytical", "evaluation backend")
	par := fs.Int("par", 0, "evaluation worker-pool size (0 = GOMAXPROCS)")
	cacheEntries := fs.Int("cache", 16384, "content-keyed result-cache entry budget (0 = off)")
	cacheBytes := fs.Int64("cache-bytes", 0,
		"result-cache byte budget; entry budget adapts to the measured entry footprint (overrides -cache; 0 = off)")
	maxUpload := fs.Int64("max-upload-bytes", 1<<30, "maximum bytes of one upload body")
	tenantUploads := fs.Int("tenant-uploads", 2, "concurrent uploads allowed per tenant (excess get 429)")
	maxTenants := fs.Int("max-tenants", 256, "maximum number of tenants")
	stateDir := fs.String("state-dir", "",
		"flush per-tenant snapshots to this directory on graceful shutdown (empty = no flush)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second,
		"how long to wait for in-flight uploads on shutdown before closing connections")
	showVersion := fs.Bool("version", false, "print build/version information and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		fmt.Fprintln(stdout, version.Get())
		return nil
	}

	engOpts := []pai.Option{
		pai.WithConfig(pai.BaselineConfig()),
		pai.WithBackend(*backendName),
	}
	if *par > 0 {
		engOpts = append(engOpts, pai.WithParallelism(*par))
	}
	switch {
	case *cacheBytes > 0:
		engOpts = append(engOpts, pai.WithCacheBytes(*cacheBytes))
	case *cacheEntries > 0:
		engOpts = append(engOpts, pai.WithCache(*cacheEntries))
	}
	eng, err := pai.New(engOpts...)
	if err != nil {
		return err
	}
	srv, err := serve.New(serve.Config{
		Engine:         eng,
		WindowWidth:    *windowWidth,
		WindowCount:    *windowCount,
		Target:         pai.ToAllReduceLocal,
		MaxTenants:     *maxTenants,
		MaxUploadBytes: *maxUpload,
		TenantUploads:  *tenantUploads,
	})
	if err != nil {
		return err
	}

	// Catch the drain signals before announcing the address, so a signal
	// sent as soon as the listen line appears already drains.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger := log.New(stderr, "paiserve: ", log.LstdFlags)
	logger.Printf("%s", version.Get())
	logger.Printf("listening on %s (backend %s, %d workers, %d windows of %s)",
		ln.Addr(), eng.Backend(), eng.Parallelism(), *windowCount, *windowWidth)

	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	logger.Printf("draining (up to %s)", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		logger.Printf("drain: %v (closing connections)", err)
		httpSrv.Close()
	}
	if serveErr := <-errc; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
		return serveErr
	}
	if *stateDir != "" {
		if err := srv.FlushState(*stateDir); err != nil {
			return fmt.Errorf("flush state: %w", err)
		}
		logger.Printf("flushed tenant state to %s", *stateDir)
	}
	logger.Printf("shutdown complete")
	return nil
}
