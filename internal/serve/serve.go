// Package serve implements geostatd's HTTP serving layer: Table-1
// analytics (KDV, K-function, Moran's I, General G, IDW) over JSON/PNG,
// backed by an in-memory dataset registry and a result cache with one
// byte budget and size-aware (GreedyDual-Size) eviction.
//
// Every tool request flows through the same harness (Server.toolHandler):
// count the request, try the cache, then coalesce with any identical
// in-flight request (singleflight.go — one computation, N waiters, each
// honouring its own context). The flight leader acquires an admission
// slot (bounded wait queue, admission.go), bounds the computation with
// the tool's timeout budget, runs it with the detached flight context
// threaded down into the worker pools, and fills the cache. Outcomes
// map to HTTP statuses: context.Canceled becomes 499 (client closed
// request), admission overflow becomes 503 with Retry-After, a timeout
// budget overrun becomes 504 with Retry-After, anything else becomes
// 400. Successful responses are cached by their canonical key (see
// cacheKey) and replayed byte-identically.
//
// The geolint determinism rules apply here as everywhere: all randomness
// enters through explicit seed parameters (geostat.NewRand), responses
// are bit-identical for every worker count, and no goroutines are spawned
// outside internal/parallel.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"geostat"
	"geostat/internal/obs"
)

// StatusClientClosedRequest is the nginx-convention status for a request
// abandoned by the client before the computation finished.
const StatusClientClosedRequest = 499

// Config configures a Server.
type Config struct {
	// Timeout bounds each tool computation; <= 0 means no deadline.
	// ToolTimeouts overrides it per tool.
	Timeout time.Duration
	// ToolTimeouts is the per-tool computation budget (keys are tool
	// names: "kdv", "kfunction", "moran", "generalg", "idw"). A tool
	// without an entry uses Timeout. A budget overrun returns 504.
	ToolTimeouts map[string]time.Duration
	// MaxInFlight caps concurrently executing tool computations; <= 0
	// means unlimited. Computations beyond the cap wait in the
	// admission queue (honouring their context).
	MaxInFlight int
	// MaxQueue bounds how many computations may wait for an in-flight
	// slot: 0 waits without bound (legacy behaviour), > 0 bounds the
	// queue, < 0 rejects immediately when no slot is free. Overflow is
	// rejected with 503 + Retry-After.
	MaxQueue int
	// CacheBytes bounds the result cache; <= 0 disables caching.
	CacheBytes int64
	// Workers is the parallelism handed to every tool invocation
	// (0/1 serial, <0 GOMAXPROCS). Results are bit-identical for every
	// value; this only trades latency for CPU.
	Workers int
	// MaxBodyBytes caps dataset upload bodies; <= 0 means 32 MiB.
	MaxBodyBytes int64
	// SlowThreshold logs the full span tree of any tool request that takes
	// at least this long; <= 0 disables slow-request logging.
	SlowThreshold time.Duration
	// Logf receives slow-request logs; nil means the standard logger.
	Logf func(format string, args ...any)
}

// Server is the geostatd HTTP handler set. Create with NewServer; it is
// safe for concurrent use.
type Server struct {
	cfg     Config
	reg     *Registry
	cache   *Cache
	adm     *admission
	flights *flightGroup
	mux     *http.ServeMux
	start   time.Time
	metrics *obs.Registry

	// lastTrace is the span tree of the most recently completed tool
	// request, served at /debug/trace/last.
	lastTrace atomic.Pointer[obs.SpanTree]
}

// NewServer returns a Server with an empty registry.
func NewServer(cfg Config) *Server {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 32 << 20
	}
	s := &Server{
		cfg:     cfg,
		reg:     NewRegistry(),
		cache:   NewCache(cfg.CacheBytes),
		mux:     http.NewServeMux(),
		start:   time.Now(),
		metrics: obs.NewRegistry(),
	}
	s.flights = newFlightGroup(s.metrics)
	s.adm = newAdmission(cfg.MaxInFlight, cfg.MaxQueue, s.metrics)
	s.registerObs()
	s.routes()
	return s
}

// toolTimeout returns the computation budget for a tool: its entry in
// ToolTimeouts, or the default Timeout. <= 0 means no deadline.
func (s *Server) toolTimeout(tool string) time.Duration {
	if d, ok := s.cfg.ToolTimeouts[tool]; ok {
		return d
	}
	return s.cfg.Timeout
}

// Registry exposes the dataset registry (CLI preloading, tests).
func (s *Server) Registry() *Registry { return s.reg }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/trace/last", s.handleTraceLast)
	s.mux.HandleFunc("GET /v1/datasets", s.handleListDatasets)
	s.mux.HandleFunc("GET /v1/datasets/{name}/digest", s.handleDigest)
	s.mux.HandleFunc("POST /v1/datasets/{name}", s.handleUpload)
	s.mux.HandleFunc("POST /v1/generate", s.handleGenerate)
	s.mux.HandleFunc("GET /v1/kdv", s.toolHandler("kdv", s.computeKDV))
	s.mux.HandleFunc("GET /v1/kfunction", s.toolHandler("kfunction", s.computeKFunction))
	s.mux.HandleFunc("GET /v1/moran", s.toolHandler("moran", s.computeMoran))
	s.mux.HandleFunc("GET /v1/generalg", s.toolHandler("generalg", s.computeGeneralG))
	s.mux.HandleFunc("GET /v1/idw", s.toolHandler("idw", s.computeIDW))
}

// computeFunc runs one tool against a registered dataset and the
// request's parsed parameters, returning the response payload. It must
// honour ctx: the worker pools it drives check cancellation between
// chunks.
type computeFunc func(ctx context.Context, d *geostat.Dataset, p *params) (Value, error)

// toolHandler wraps a computeFunc in the shared serving harness. The
// "dataset" query parameter names the input; the canonical cache key is
// derived from the tool, the dataset@version, and the full sorted query.
func (s *Server) toolHandler(tool string, compute computeFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.metrics.Counter("geostatd_requests_total",
			"tool requests served", obs.L("tool", tool)).Inc()
		inflight := s.metrics.Gauge("geostatd_requests_inflight",
			"tool requests executing now")
		inflight.Add(1)
		defer inflight.Add(-1)

		ctx, root := obs.NewTrace(r.Context(), "request")
		root.SetAttr("tool", tool)
		defer s.finishTrace(tool, root)

		name := r.URL.Query().Get("dataset")
		if name == "" {
			s.writeError(w, http.StatusBadRequest, "missing dataset parameter")
			return
		}
		_, lookup := obs.Trace(ctx, "request.lookup")
		d, version, ok := s.reg.Get(name)
		lookup.End()
		if !ok {
			s.writeError(w, http.StatusNotFound, fmt.Sprintf("unknown dataset %q", name))
			return
		}

		key := cacheKey(tool, name, version, r.URL.Query())
		_, probe := obs.Trace(ctx, "request.cache")
		v, hit := s.cache.Get(key)
		probe.End()
		if hit {
			root.SetAttr("cache", "hit")
			writeValue(w, v, "hit")
			return
		}

		// Identical concurrent misses coalesce into one computation (see
		// singleflight.go). The flight body — admission, timeout budget,
		// compute, cache fill — runs once on a context detached from any
		// single waiter; this handler's ctx only governs how long THIS
		// request keeps waiting for the shared result.
		query := r.URL.Query()
		v, shared, err := s.flights.do(ctx, key, func(fctx context.Context) (Value, error) {
			s.metrics.Counter("serve_compute_total",
				"tool computations actually executed (cache misses after coalescing)").Inc()
			release, aerr := s.adm.acquire(fctx)
			if aerr != nil {
				return Value{}, aerr
			}
			defer release()
			if budget := s.toolTimeout(tool); budget > 0 {
				var cancel context.CancelFunc
				fctx, cancel = context.WithDeadlineCause(fctx,
					time.Now().Add(budget), errBudgetExceeded)
				defer cancel()
			}
			p := newParams(query)
			cv, cerr := compute(fctx, d, p)
			if cerr == nil {
				cerr = p.err()
			}
			if cerr != nil {
				if errors.Is(cerr, context.DeadlineExceeded) &&
					errors.Is(context.Cause(fctx), errBudgetExceeded) {
					cerr = fmt.Errorf("%s: %w", tool, errBudgetExceeded)
				}
				return Value{}, cerr
			}
			s.cache.Put(key, cv)
			return cv, nil
		})
		if shared {
			root.SetAttr("coalesced", "true")
		}
		if err != nil {
			s.writeToolError(w, err)
			return
		}
		if shared {
			writeValue(w, v, "coalesced")
			return
		}
		writeValue(w, v, "miss")
	}
}

// errBudgetExceeded marks a computation killed by its per-tool timeout
// budget (Config.Timeout / Config.ToolTimeouts), as opposed to a client
// that went away. It is installed as the deadline cause so the harness
// can tell the two DeadlineExceeded flavours apart.
var errBudgetExceeded = errors.New("computation exceeded its timeout budget")

// writeToolError maps a compute failure to its HTTP status: 499 for a
// client disconnect, 503 (+Retry-After) for admission rejection —
// overload is retryable somewhere else — 504 (+Retry-After) for a
// computation killed by its timeout budget, 400 for everything else
// (validation, bad parameters).
func (s *Server) writeToolError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errOverloaded):
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, errBudgetExceeded):
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusGatewayTimeout, err.Error())
	case errors.Is(err, context.Canceled):
		s.writeError(w, StatusClientClosedRequest, "client closed request")
	case errors.Is(err, context.DeadlineExceeded):
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusGatewayTimeout, "computation exceeded the per-request timeout")
	default:
		s.writeError(w, http.StatusBadRequest, err.Error())
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, msg string) {
	if status >= http.StatusBadRequest {
		s.metrics.Counter("geostatd_errors_total",
			"error responses by kind", obs.L("kind", errorKind(status))).Inc()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// writeValue writes a cached-or-fresh payload. X-Cache tells clients (and
// the integration tests) whether the bytes came from the result cache. The
// body's length is known, so it goes out with a Content-Length (not
// chunked) and a reader can size its buffer once.
func writeValue(w http.ResponseWriter, v Value, cache string) {
	w.Header().Set("Content-Type", v.ContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(v.Body)))
	w.Header().Set("X-Cache", cache)
	_, _ = w.Write(v.Body)
}

// jsonValue marshals a response payload into a cacheable Value. Struct
// field order makes the encoding deterministic, so cache replays are
// byte-identical to the first computation.
func jsonValue(payload any) (Value, error) {
	b, err := json.Marshal(payload)
	if err != nil {
		return Value{}, err
	}
	return Value{Body: b, ContentType: "application/json"}, nil
}

// healthzResponse is the /healthz payload.
type healthzResponse struct {
	Status       string     `json:"status"`
	UptimeSec    float64    `json:"uptime_sec"`
	Datasets     int        `json:"datasets"`
	Cache        CacheStats `json:"cache"`
	CacheHitRate float64    `json:"cache_hit_rate"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.cache.Stats()
	resp := healthzResponse{
		Status:       "ok",
		UptimeSec:    time.Since(s.start).Seconds(),
		Datasets:     len(s.reg.List()),
		Cache:        st,
		CacheHitRate: st.HitRate(),
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}
