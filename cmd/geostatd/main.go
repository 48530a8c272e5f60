// Command geostatd serves the geostat analytics tools (KDV, K-function,
// Moran's I, General G, IDW) over HTTP with per-request timeouts, an
// in-flight concurrency cap, and a size-aware result cache (-cache-mb is
// one byte budget; only a result larger than all of it is never cached).
//
// Usage:
//
//	geostatd [-addr :8080] [-timeout 30s] [-tool-timeout kdv=2s ...]
//	         [-max-inflight 16] [-max-queue 64] [-cache-mb 64]
//	         [-workers -1] [-load name=path ...]
//	         [-slow-ms 0] [-debug-addr addr]
//
// Identical in-flight requests are coalesced into one computation
// (single-flight); computations beyond -max-inflight wait in a queue
// bounded by -max-queue, and overflow is shed with 503 + Retry-After.
// A computation that exceeds its timeout budget (-timeout, or the
// per-tool -tool-timeout override) returns 504 + Retry-After.
//
// Observability: GET /metrics serves Prometheus text (per-tool latency
// histograms, cache hit/miss/eviction counters, in-flight gauge) and
// GET /debug/trace/last the span tree of the last tool request or upload.
// -slow-ms N logs the full stage tree of any request slower than N ms.
// -debug-addr starts a second listener with net/http/pprof — opt-in so
// profiling endpoints never share the public port.
//
// -load preloads CSV datasets at startup (repeatable); more datasets can
// be uploaded or generated at runtime via POST /v1/datasets/{name} and
// POST /v1/generate. See the README "Serving" section for the endpoint
// reference and a worked curl session.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"geostat"
	"geostat/internal/serve"
)

// loadFlags collects repeated -load name=path arguments.
type loadFlags []string

func (l *loadFlags) String() string { return strings.Join(*l, ",") }
func (l *loadFlags) Set(v string) error {
	*l = append(*l, v)
	return nil
}

// timeoutFlags collects repeated -tool-timeout tool=duration arguments
// into the per-tool budget map.
type timeoutFlags map[string]time.Duration

func (t timeoutFlags) String() string {
	parts := make([]string, 0, len(t))
	for tool, d := range t {
		parts = append(parts, tool+"="+d.String())
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

func (t timeoutFlags) Set(v string) error {
	tool, raw, ok := strings.Cut(v, "=")
	if !ok || tool == "" {
		return fmt.Errorf("want tool=duration, got %q", v)
	}
	d, err := time.ParseDuration(raw)
	if err != nil {
		return err
	}
	t[tool] = d
	return nil
}

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		timeout      = flag.Duration("timeout", 30*time.Second, "per-request computation timeout (0 disables)")
		maxInFlight  = flag.Int("max-inflight", 16, "max concurrently executing tool computations (0 = unlimited)")
		maxQueue     = flag.Int("max-queue", 64, "max computations waiting for an in-flight slot; overflow is shed with 503 (0 = unbounded queue, <0 = never queue)")
		cacheMB      = flag.Int64("cache-mb", 64, "result cache size in MiB (0 disables caching)")
		workers      = flag.Int("workers", -1, "worker goroutines per computation (-1 = all cores)")
		slowMS       = flag.Int64("slow-ms", 0, "log the stage tree of requests slower than this many ms (0 disables)")
		debugAddr    = flag.String("debug-addr", "", "optional second listen address serving net/http/pprof (empty disables)")
		loads        loadFlags
		toolTimeouts = make(timeoutFlags)
	)
	flag.Var(&loads, "load", "preload a CSV dataset as name=path (repeatable)")
	flag.Var(&toolTimeouts, "tool-timeout", "per-tool computation budget as tool=duration, e.g. kdv=2s (repeatable; overrides -timeout)")
	flag.Parse()

	cfg := serve.Config{
		Timeout:       *timeout,
		ToolTimeouts:  toolTimeouts,
		MaxInFlight:   *maxInFlight,
		MaxQueue:      *maxQueue,
		CacheBytes:    *cacheMB << 20,
		Workers:       *workers,
		SlowThreshold: time.Duration(*slowMS) * time.Millisecond,
	}
	if err := run(*addr, cfg, *debugAddr, loads); err != nil {
		fmt.Fprintln(os.Stderr, "geostatd:", err)
		os.Exit(1)
	}
}

func run(addr string, cfg serve.Config, debugAddr string, loads []string) error {
	srv := serve.NewServer(cfg)
	for _, spec := range loads {
		name, path, ok := strings.Cut(spec, "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("bad -load %q: want name=path", spec)
		}
		d, err := geostat.ReadCSVFile(path)
		if err != nil {
			return fmt.Errorf("load %q: %w", spec, err)
		}
		if _, err := srv.Registry().Put(name, d); err != nil {
			return fmt.Errorf("load %q: %w", spec, err)
		}
		log.Printf("loaded dataset %q: %d points", name, d.N())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		ds := &http.Server{Addr: debugAddr, Handler: dmux, ReadHeaderTimeout: 5 * time.Second}
		go func() { //lint:allow norawgoroutine debug listener lives for the process; killed on exit
			log.Printf("pprof listening on %s", debugAddr)
			if err := ds.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("pprof listener: %v", err)
			}
		}()
		defer ds.Close()
	}

	hs := &http.Server{
		Addr:              addr,
		Handler:           srv,
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }() //lint:allow norawgoroutine ListenAndServe must not block the shutdown watcher; it exits via Shutdown below
	log.Printf("geostatd listening on %s (timeout %s, max-inflight %d, max-queue %d, cache %d MiB)",
		addr, cfg.Timeout, cfg.MaxInFlight, cfg.MaxQueue, cfg.CacheBytes>>20)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("signal received, draining")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return err
	}
	return nil
}
