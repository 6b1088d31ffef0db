// Package service is the HTTP/JSON façade of the FuseCU library: the
// fusecu-serve daemon. It exposes the paper's four capabilities as REST
// endpoints —
//
//   - POST /v1/optimize  — Principles 1–3, one-shot intra-operator optimum
//   - POST /v1/plan      — Principle 4, chain-level fusion planning
//   - POST /v1/search    — search: the exact canonical walk (auto,
//     exhaustive, coarse) and DAT's GA (genetic)
//   - POST /v1/evaluate  — cross-platform workload evaluation (Fig. 10/11)
//   - GET  /v1/version   — the API and cost-model versions
//   - GET  /metrics      — Prometheus-style text exposition
//   - GET  /healthz      — liveness probe (200 while the process lives)
//   - GET  /readyz       — readiness probe (503 before SetReady and during
//     graceful drain, so load balancers stop routing to a dying instance)
//
// plus the operational substrate an accelerator-compiler service needs:
// strict request validation mapped onto the library's unified error
// sentinels, per-request deadlines that the engines poll through
// ctx.Err() (the deadline is read from the clock, so a request arms no
// runtime timer), and a bounded-concurrency admission gate (429 +
// Retry-After on saturation). A Server keeps no per-shape state: every
// answer is computed from the request alone, in microseconds for the
// walks.
//
// The resilience layer on top:
//
//   - Every registered handler runs inside the recovered panic-isolation
//     middleware: a panic maps to a 500 internal_error envelope and a
//     panics_recovered counter, and the process keeps serving.
//   - /v1/search degrades gracefully: when the engine overran the
//     request's deadline — or itself failed with errs.ErrInternal — the
//     handler answers with the principle-based one-shot optimum and
//     "degraded": true instead of a 504, turning the paper's closed-form
//     result into the service's always-available fallback.
//   - Config.Injector arms deterministic fault-injection sites
//     ("service.<endpoint>") in the request path for chaos testing.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"fusecu/api"
	"fusecu/internal/cost"
	"fusecu/internal/errs"
	"fusecu/internal/faultinject"
	"fusecu/internal/metrics"
)

// Config tunes a Server. The zero value selects production defaults.
type Config struct {
	// MaxInFlight caps concurrently admitted /v1/* requests; excess
	// requests are rejected with 429 + Retry-After. Default 64.
	MaxInFlight int
	// DefaultTimeout bounds each request when the client does not pass a
	// tighter timeout_ms. Default 30s.
	DefaultTimeout time.Duration
	// RetryAfter is the Retry-After hint (seconds) on 429. Default 1.
	RetryAfter int
	// DisableDegrade forces deadline-pressured searches to 504 instead of
	// falling back to the principle optimizer.
	DisableDegrade bool
	// Injector arms this server's fault-injection sites ("service.optimize",
	// "service.search", …), fired once per admitted request before the
	// handler body. nil (the default) leaves every site disarmed.
	Injector *faultinject.Injector
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 1
	}
	return c
}

// Server holds the shared state of the service: the metrics registry, the
// admission gate, and the readiness/drain state machine.
type Server struct {
	cfg  Config
	reg  *metrics.Registry
	gate chan struct{}
	// ready gates /readyz only: the daemon flips it true once the listener
	// is up and false when draining, so load balancers steer traffic away
	// without affecting requests already routed here.
	ready atomic.Bool
	// draining makes every /v1/* request fail fast with 503 + Connection:
	// close; probes and /metrics keep answering so operators can watch the
	// drain.
	draining atomic.Bool
	// requests holds each counted endpoint's http_requests_total:<name>
	// family and responses the fleet-wide http_responses_total family,
	// resolved once so a request formats no counter names.
	requests  map[string]*metrics.StatusCounters
	responses *metrics.StatusCounters
}

// New builds a Server with cfg (zero value → defaults). The server starts
// not-ready; call SetReady(true) once the listener is accepting.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := metrics.NewRegistry()
	s := &Server{
		cfg:       cfg,
		reg:       reg,
		gate:      make(chan struct{}, cfg.MaxInFlight),
		requests:  map[string]*metrics.StatusCounters{},
		responses: reg.StatusCounters("http_responses_total"),
	}
	for _, name := range []string{"optimize", "plan", "search", "evaluate", "version"} {
		s.requests[name] = reg.StatusCounters("http_requests_total:" + name)
	}
	return s
}

// SetReady flips the readiness probe. Liveness (/healthz) is unaffected.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// BeginDrain moves the server into drain mode: /readyz turns 503, and every
// subsequently arriving /v1/* request is rejected fast with 503 +
// Connection: close instead of being accepted into a process that is about
// to stop. Requests already in flight are unaffected.
func (s *Server) BeginDrain() {
	s.ready.Store(false)
	s.draining.Store(true)
}

// Draining reports whether BeginDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Registry exposes the metrics registry (tests assert counters and the
// in-flight high-water mark).
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Handler returns the service's routing table. Every registration is
// wrapped in the recovered panic-isolation middleware — enforced by the
// fusecu-vet unrecoveredhandler analyzer.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/optimize", s.recovered("optimize", endpoint(s, "optimize", s.handleOptimize)))
	mux.HandleFunc("/v1/plan", s.recovered("plan", endpoint(s, "plan", s.handlePlan)))
	mux.HandleFunc("/v1/search", s.recovered("search", endpoint(s, "search", s.handleSearch)))
	mux.HandleFunc("/v1/evaluate", s.recovered("evaluate", endpoint(s, "evaluate", s.handleEvaluate)))
	mux.HandleFunc("/v1/version", s.recovered("version", s.handleVersion))
	mux.HandleFunc("/metrics", s.recovered("metrics", s.handleMetrics))
	mux.HandleFunc("/healthz", s.recovered("healthz", s.handleHealthz))
	mux.HandleFunc("/readyz", s.recovered("readyz", s.handleReadyz))
	return mux
}

// recovered is the panic-isolation middleware: a panic anywhere below it —
// an injected fault, a handler bug, a library invariant violation — is
// mapped to a 500 internal_error envelope and counted in panics_recovered,
// and the process keeps serving. (net/http's own recover would also keep the
// process alive for request-goroutine panics, but it kills the connection
// without a response; this boundary keeps the wire contract.)
func (s *Server) recovered(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler {
					panic(rec) // deliberate connection abort; not a fault
				}
				s.reg.Counter("panics_recovered").Inc()
				s.writeError(w, name, &apiError{
					status: http.StatusInternalServerError,
					code:   api.CodeInternalError,
					err:    fmt.Errorf("service: panic in %s handler: %v", name, rec),
				})
			}
		}()
		h(w, r)
	}
}

// apiError is a handler failure bound to a transport status. Handlers
// normally return bare library errors; toAPIError classifies them.
type apiError struct {
	status int
	code   string
	err    error
}

func (e *apiError) Error() string { return e.err.Error() }
func (e *apiError) Unwrap() error { return e.err }

// badRequest wraps a request-shape error (malformed JSON, missing field)
// that no library sentinel covers.
func badRequest(format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, code: api.CodeInvalidRequest, err: fmt.Errorf(format, args...)}
}

// statusClientClosedRequest is the de-facto (nginx) status for a request
// aborted by the client; net/http has no named constant for it.
const statusClientClosedRequest = 499

// toAPIError maps any handler error onto the unified error model: library
// sentinels decide the status; context errors map to timeout/cancellation
// statuses; everything else is a 500.
func toAPIError(err error) *apiError {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae
	}
	switch {
	case errors.Is(err, errs.ErrInvalidOperator),
		errors.Is(err, errs.ErrInvalidChain),
		errors.Is(err, errs.ErrInvalidDataflow):
		return &apiError{status: http.StatusBadRequest, code: api.CodeInvalidRequest, err: err}
	case errors.Is(err, errs.ErrBufferTooSmall):
		return &apiError{status: http.StatusUnprocessableEntity, code: api.CodeBufferTooSmall, err: err}
	case errors.Is(err, errs.ErrInfeasible):
		return &apiError{status: http.StatusUnprocessableEntity, code: api.CodeInfeasible, err: err}
	case errors.Is(err, errs.ErrUnknownPlatform),
		errors.Is(err, errs.ErrUnknownModel):
		return &apiError{status: http.StatusNotFound, code: api.CodeNotFound, err: err}
	case errors.Is(err, errs.ErrInternal):
		return &apiError{status: http.StatusInternalServerError, code: api.CodeInternalError, err: err}
	case errors.Is(err, context.DeadlineExceeded):
		return &apiError{status: http.StatusGatewayTimeout, code: api.CodeDeadlineExceeded, err: err}
	case errors.Is(err, context.Canceled):
		return &apiError{status: statusClientClosedRequest, code: api.CodeClientClosedRequest, err: err}
	}
	return &apiError{status: http.StatusInternalServerError, code: api.CodeInternal, err: err}
}

// errorEnvelope is the uniform JSON error body — the api package's
// ErrorEnvelope, aliased so in-package tests read naturally.
type (
	errorEnvelope = api.ErrorEnvelope
	errorBody     = api.ErrorBody
)

// endpoint wraps a typed endpoint body h with the service middleware:
// method check, admission gate, strict decode of the body into a Req, the
// per-request deadline (the request's timeout_ms, capped by
// DefaultTimeout), metrics, and the error envelope. h gets the decoded
// request under its deadline and returns a JSON-marshalable response or an
// error. The deadline is a deadlineCtx: it arms no timer unless something
// blocks on its Done, and it is released when the request returns.
func endpoint[Req any](s *Server, name string, h func(ctx context.Context, req *Req) (any, error)) http.HandlerFunc {
	latency := s.reg.Histogram("http_latency_ms:"+name, nil)
	inflight := s.reg.Gauge("http_inflight")
	site := "service." + name
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			// A request that raced the drain gets a fast, explicit 503 with
			// Connection: close so the client re-resolves to a live instance
			// instead of queueing behind a server that is about to stop.
			w.Header().Set("Connection", "close")
			s.writeError(w, name, &apiError{
				status: http.StatusServiceUnavailable,
				code:   api.CodeDraining,
				err:    fmt.Errorf("service: draining, not accepting new requests"),
			})
			return
		}
		if r.Method != http.MethodPost {
			s.writeError(w, name, &apiError{
				status: http.StatusMethodNotAllowed,
				code:   api.CodeMethodNotAllowed,
				err:    fmt.Errorf("service: %s requires POST", r.URL.Path),
			})
			return
		}
		select {
		case s.gate <- struct{}{}:
		default:
			w.Header().Set("Retry-After", strconv.Itoa(s.cfg.RetryAfter))
			s.reg.Counter("http_rejected_total").Inc()
			s.writeError(w, name, &apiError{
				status: http.StatusTooManyRequests,
				code:   api.CodeOverloaded,
				err:    fmt.Errorf("service: %d requests already in flight", s.cfg.MaxInFlight),
			})
			return
		}
		defer func() { <-s.gate }()
		inflight.Add(1)
		defer inflight.Add(-1)

		// The per-endpoint fault-injection site: chaos tests arm it to
		// return errors (mapped through the envelope), panic (recovered by
		// the middleware above), or stall (exercising deadlines and client
		// retries). Disarmed it is a nil-receiver no-op.
		if err := s.cfg.Injector.Fire(site); err != nil {
			s.writeError(w, name, fmt.Errorf("service: %s: %w: %w", name, err, errs.ErrInternal))
			return
		}

		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
		if err != nil {
			s.writeError(w, name, badRequest("service: reading body: %v", err))
			return
		}

		start := time.Now()
		var req Req
		herr := decodeStrict(body, &req)
		var resp any
		if herr == nil {
			// timeout_ms is compared in milliseconds, so a value whose
			// Duration would overflow is capped like any other.
			timeout := s.cfg.DefaultTimeout
			if ms := timeoutMS(&req); ms > 0 && ms <= int64(timeout/time.Millisecond) {
				timeout = time.Duration(ms) * time.Millisecond
			}
			ctx := withDeadline(r.Context(), time.Now().Add(timeout))
			defer ctx.release()
			resp, herr = h(ctx, &req)
		}
		latency.Observe(float64(time.Since(start)) / float64(time.Millisecond))
		if herr != nil {
			s.writeError(w, name, herr)
			return
		}
		s.count(name, http.StatusOK)
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(resp); err != nil {
			// Headers are gone; nothing useful to send. Count it.
			s.reg.Counter("http_encode_errors_total").Inc()
		}
	}
}

// writeError renders the error envelope and bumps the per-endpoint and
// per-code counters (the latter aggregate 400/422/429/499/500/503/504 across
// endpoints for the /metrics dashboard).
func (s *Server) writeError(w http.ResponseWriter, name string, err error) {
	ae := toAPIError(err)
	s.count(name, ae.status)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(ae.status)
	if encErr := json.NewEncoder(w).Encode(errorEnvelope{Error: errorBody{Code: ae.code, Message: ae.err.Error()}}); encErr != nil {
		s.reg.Counter("http_encode_errors_total").Inc()
	}
}

// count bumps the per-endpoint and the per-status response counters.
func (s *Server) count(name string, status int) {
	if c, ok := s.requests[name]; ok {
		c.Inc(status)
	} else {
		s.reg.Counter(fmt.Sprintf("http_requests_total:%s:%d", name, status)).Inc()
	}
	s.responses.Inc(status)
}

// timeoutMS reads the optional timeout_ms field every request schema
// carries.
func timeoutMS(req any) int64 {
	switch r := req.(type) {
	case *optimizeRequest:
		return r.TimeoutMS
	case *planRequest:
		return r.TimeoutMS
	case *searchRequest:
		return r.TimeoutMS
	case *evaluateRequest:
		return r.TimeoutMS
	}
	return 0
}

// decodeStrict unmarshals body into v rejecting unknown fields and
// trailing garbage — the validation layer of the error model.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("service: bad request body: %v", err)
	}
	if dec.More() {
		return badRequest("service: trailing data after JSON body")
	}
	return nil
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := s.reg.WriteText(w); err != nil {
		s.reg.Counter("http_encode_errors_total").Inc()
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if _, err := io.WriteString(w, `{"status":"ok"}`+"\n"); err != nil {
		s.reg.Counter("http_encode_errors_total").Inc()
	}
}

// handleReadyz is the readiness probe: 200 only between SetReady(true) and
// BeginDrain. Unlike /healthz it is a routing signal, not a liveness one.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	status, body := http.StatusOK, `{"status":"ready"}`
	switch {
	case s.draining.Load():
		status, body = http.StatusServiceUnavailable, `{"status":"draining"}`
	case !s.ready.Load():
		status, body = http.StatusServiceUnavailable, `{"status":"not_ready"}`
	}
	w.WriteHeader(status)
	if _, err := io.WriteString(w, body+"\n"); err != nil {
		s.reg.Counter("http_encode_errors_total").Inc()
	}
}

// handleVersion answers GET /v1/version, always on: fusecu-route uses it to
// refuse mixed-cost-model fleets. It bypasses the POST middleware (no body,
// no deadline) and the admission gate, being cheap and read-only.
func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	const name = "version"
	if r.Method != http.MethodGet {
		s.writeError(w, name, &apiError{
			status: http.StatusMethodNotAllowed,
			code:   api.CodeMethodNotAllowed,
			err:    fmt.Errorf("service: %s requires GET", r.URL.Path),
		})
		return
	}
	s.count(name, http.StatusOK)
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(api.VersionResponse{
		APIVersion:         api.Version,
		CostModelVersion:   cost.ModelVersion,
		TableFormatVersion: api.TableFormatVersion,
	}); err != nil {
		s.reg.Counter("http_encode_errors_total").Inc()
	}
}
