package route

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"fusecu/api"
	"fusecu/internal/faultinject"
	"fusecu/internal/h1"
)

// statusClientClosedRequest mirrors the service's convention (nginx's 499)
// for requests abandoned by the inbound client mid-proxy.
const statusClientClosedRequest = 499

// Handler returns the router's surface: /v1/* proxied round-robin over the
// healthy replicas, plus the router's own probes, metrics, and version
// report. Every registration is wrapped in the recovered panic-isolation
// middleware.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/version", r.recovered("version", r.handleVersion))
	mux.HandleFunc("/metrics", r.recovered("metrics", r.handleMetrics))
	mux.HandleFunc("/healthz", r.recovered("healthz", r.handleHealthz))
	mux.HandleFunc("/readyz", r.recovered("readyz", r.handleReadyz))
	mux.HandleFunc("/v1/", r.recovered("proxy", r.handleProxy))
	return mux
}

// recovered is the router's panic-isolation middleware: same contract as
// the service's — a panic maps to a 500 internal_error envelope and the
// process keeps routing.
func (r *Router) recovered(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler {
					panic(rec)
				}
				r.reg.Counter("panics_recovered").Inc()
				r.writeError(w, http.StatusInternalServerError, api.CodeInternalError,
					fmt.Sprintf("route: panic in %s handler: %v", name, rec))
			}
		}()
		h(w, req)
	}
}

// writeError renders the same uniform envelope the replicas speak, so a
// router-originated failure is indistinguishable in shape from a backend
// one.
func (r *Router) writeError(w http.ResponseWriter, status int, code, msg string) {
	r.responses.Inc(status)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	env := api.ErrorEnvelope{Error: api.ErrorBody{Code: code, Message: msg}}
	if err := json.NewEncoder(w).Encode(env); err != nil {
		r.reg.Counter("route_encode_errors_total").Inc()
	}
}

// retryableStatus reports whether an upstream status is worth retrying on
// another replica: 500 (a replica-local failure of a pure, deterministic
// query — safe to re-ask), 502/503 (the replica is dying or draining). 504
// is excluded because the deadline already consumed the request's time
// budget, as is 429, which is admission backpressure the client must obey.
func retryableStatus(code int) bool {
	return code == http.StatusInternalServerError ||
		code == http.StatusBadGateway ||
		code == http.StatusServiceUnavailable
}

// upstreamResult is one finished upstream attempt: the reply, read whole,
// or the error that ended the attempt.
type upstreamResult struct {
	reply
	b     *Backend
	probe bool
	err   error
}

// attemptUpstream runs one proxy attempt against b. The relay reads the
// reply's body in full, so a reply cut short is a failed attempt like any
// other transport error.
func (r *Router) attemptUpstream(ctx context.Context, b *Backend, probe bool, method, uri, contentType string, body []byte) upstreamResult {
	res := upstreamResult{b: b, probe: probe}
	b.attempts.Inc()
	if res.err = faultinject.Active().FireCtx(ctx, SiteProxy); res.err != nil {
		return res
	}
	res.reply, res.err = r.up.exchange(ctx, b, method, uri, contentType, body)
	return res
}

// handleProxy forwards one /v1/* request to the next replica of the
// round-robin rotation. The body is fully buffered up front, so a replica
// dying mid-request is retried against the next replica of the rotation
// under the per-request attempt budget — the client sees one successful
// response instead of a 502. The winning response passes through verbatim —
// status, envelope, Retry-After included.
func (r *Router) handleProxy(w http.ResponseWriter, req *http.Request) {
	rb, err := h1.ReadBody(w, req, 1<<20)
	if err != nil {
		r.writeError(w, http.StatusBadRequest, api.CodeInvalidRequest,
			fmt.Sprintf("route: reading body: %v", err))
		return
	}
	// Every attempt, hedges included, has finished with the body by the
	// time handleProxy returns.
	defer rb.Free()
	body := rb.B
	it := r.candidates()
	uri := req.URL.RequestURI()
	ct := req.Header.Get("Content-Type")

	attempts := 0
	var lastErr error
	for attempts < r.cfg.ProxyAttempts {
		b, probe := it.next()
		if b == nil {
			break
		}
		if attempts > 0 {
			r.reg.Counter("route_failovers_total").Inc()
		}
		var res upstreamResult
		if attempts == 0 && r.cfg.HedgeAfter > 0 {
			var n int
			res, n = r.raceHedge(req, &it, b, probe, ct, uri, body)
			attempts += n
		} else {
			attempts++
			res = r.attemptUpstream(req.Context(), b, probe, req.Method, uri, ct, body)
		}
		if res.err != nil {
			if req.Context().Err() != nil {
				// The inbound client hung up (or timed out) while we were
				// proxying: the upstream failure is our own cancellation
				// propagating, not replica sickness — don't eject a healthy
				// replica for it. Release the half-open slot if this attempt
				// held one, since it produced no verdict.
				if res.probe {
					res.b.ej.cancelProbe()
				}
				r.reg.Counter("route_client_disconnects_total").Inc()
				r.writeError(w, statusClientClosedRequest, api.CodeClientClosedRequest,
					"route: client closed request")
				return
			}
			r.reg.Counter("route_upstream_errors_total").Inc()
			r.noteFailure(res.b, fmt.Sprintf("transport: %v", res.err))
			lastErr = fmt.Errorf("upstream %s: %w", res.b.url, res.err)
			continue
		}
		if retryableStatus(res.status) && attempts < r.cfg.ProxyAttempts && it.more() {
			// A retryable 5xx with somewhere else to go: count the failure,
			// drop the response, fail over. At the end of the line the
			// response instead falls through below and passes through
			// verbatim — the pass-through contract.
			r.reg.Counter("route_retryable_status_total").Inc()
			r.noteFailure(res.b, fmt.Sprintf("status %d", res.status))
			lastErr = fmt.Errorf("upstream %s answered %d", res.b.url, res.status)
			discard(res)
			continue
		}
		if res.status < http.StatusInternalServerError {
			r.noteSuccess(res.b)
		} else {
			r.noteFailure(res.b, fmt.Sprintf("status %d", res.status))
		}
		res.b.requests.Inc()
		r.proxyAttempts.Observe(float64(attempts))
		r.deliver(w, res)
		return
	}
	if lastErr != nil {
		r.writeError(w, http.StatusBadGateway, api.CodeNoBackend,
			fmt.Sprintf("route: upstreams exhausted after %d attempts: %v", attempts, lastErr))
		return
	}
	r.reg.Counter("route_no_backend_total").Inc()
	r.writeError(w, http.StatusServiceUnavailable, api.CodeNoBackend,
		"route: no healthy replica available")
}

// deliver writes a winning upstream reply to the client verbatim, in one
// write with its Content-Length. A reply that closed its connection (a
// draining replica's 503) closes the client's too. A failed write (the
// client saw a truncated body) counts as route_copy_errors_total.
func (r *Router) deliver(w http.ResponseWriter, res upstreamResult) {
	h := w.Header()
	if res.contentType != "" {
		h.Set("Content-Type", res.contentType)
	}
	if res.retryAfter != "" {
		h.Set("Retry-After", res.retryAfter)
	}
	if res.close {
		h.Set("Connection", "close")
	}
	if res.status != http.StatusNoContent && res.status != http.StatusNotModified {
		h.Set("Content-Length", strconv.Itoa(res.body.Len()))
	}
	r.responses.Inc(res.status)
	w.WriteHeader(res.status)
	if _, err := w.Write(res.body.Bytes()); err != nil {
		r.reg.Counter("route_copy_errors_total").Inc()
	}
	releaseReply(res.body)
}

// discard disposes of a losing or failed attempt's reply buffer.
func discard(res upstreamResult) { releaseReply(res.body) }

// handleVersion reports the fleet's agreed version triple.
func (r *Router) handleVersion(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		r.writeError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed,
			"route: /v1/version requires GET")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(r.version); err != nil {
		r.reg.Counter("route_encode_errors_total").Inc()
	}
}

func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := r.reg.WriteText(w); err != nil {
		r.reg.Counter("route_encode_errors_total").Inc()
	}
}

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if _, err := io.WriteString(w, `{"status":"ok"}`+"\n"); err != nil {
		r.reg.Counter("route_encode_errors_total").Inc()
	}
}

// handleReadyz: the router is ready while at least one replica is healthy.
func (r *Router) handleReadyz(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if len(r.healthyBackends()) == 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		if _, err := io.WriteString(w, `{"status":"no_backend"}`+"\n"); err != nil {
			r.reg.Counter("route_encode_errors_total").Inc()
		}
		return
	}
	if _, err := io.WriteString(w, `{"status":"ready"}`+"\n"); err != nil {
		r.reg.Counter("route_encode_errors_total").Inc()
	}
}
