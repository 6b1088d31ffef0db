// Package client is the Go client for the fusecu-serve HTTP/JSON API. It
// wraps all four endpoints (/v1/optimize, /v1/plan, /v1/search,
// /v1/evaluate) behind a resilient transport:
//
//   - transient failures (transport errors, 5xx) retry with exponential
//     backoff and full jitter, capped by MaxAttempts and RetryBudget;
//   - 429 responses honor the server's Retry-After header verbatim;
//   - every attempt runs under its own AttemptTimeout, so one stuck
//     connection cannot consume the caller's whole deadline;
//   - a consecutive-failure circuit breaker opens after BreakerThreshold
//     server failures, fails fast while open, and re-closes via a single
//     half-open probe after BreakerCooldown.
//
// Determinism seams (Sleep, Now, Seed) let tests drive the retry and
// breaker machinery with fake clocks and recorded backoffs instead of real
// sleeps; production callers leave them nil.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// ErrBreakerOpen is returned (wrapped) when the circuit breaker is open and
// the call was rejected without touching the network.
var ErrBreakerOpen = errors.New("client: circuit breaker open")

// Config tunes the resilient transport. The zero value plus a BaseURL is a
// working client; zero fields take the documented defaults.
type Config struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080". Required.
	BaseURL string
	// HTTPClient issues the requests; defaults to a dedicated http.Client.
	HTTPClient *http.Client

	// MaxAttempts bounds tries per call including the first (default 4).
	MaxAttempts int
	// BaseBackoff is the first retry's jitter ceiling (default 100ms); the
	// ceiling doubles each retry up to MaxBackoff (default 2s). The actual
	// delay is uniform in [0, ceiling] — "full jitter".
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// RetryBudget caps the total time spent sleeping between attempts of
	// one call; a retry whose delay would exceed it fails instead
	// (default 30s; negative disables the cap).
	RetryBudget time.Duration
	// AttemptTimeout bounds each individual attempt (default 30s; negative
	// disables, leaving only the caller's context deadline).
	AttemptTimeout time.Duration

	// BreakerThreshold opens the breaker after this many consecutive
	// server failures — transport errors and 5xx; 429 does not count
	// (default 5; negative disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before admitting
	// one half-open probe (default 5s).
	BreakerCooldown time.Duration

	// Seed makes the jitter sequence reproducible (default 1).
	Seed int64
	// Sleep and Now are determinism seams for tests. Sleep must respect
	// ctx cancellation; nil uses a timer. Now defaults to time.Now.
	Sleep func(ctx context.Context, d time.Duration) error
	Now   func() time.Time
}

func (c Config) withDefaults() Config {
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{}
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 100 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 2 * time.Second
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 30 * time.Second
	}
	if c.AttemptTimeout == 0 {
		c.AttemptTimeout = 30 * time.Second
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Sleep == nil {
		c.Sleep = sleepCtx
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Stats are cumulative counters over the client's lifetime.
type Stats struct {
	// Attempts counts every HTTP request actually issued.
	Attempts int64
	// Retries counts attempts beyond the first of each call.
	Retries int64
	// BreakerOpen counts calls rejected by the open breaker.
	BreakerOpen int64
	// Degraded counts Search responses served by the principle fallback.
	Degraded int64
	// TransportErrors counts attempts that failed before a response arrived
	// (connection refused, reset, per-attempt timeout, truncated body).
	TransportErrors int64
	// ServerErrors counts attempts answered with a 5xx status.
	ServerErrors int64
}

// Client is a resilient fusecu-serve client; safe for concurrent use.
type Client struct {
	cfg     Config
	breaker breaker

	rngMu sync.Mutex
	rng   *rand.Rand

	attempts        atomic.Int64
	retries         atomic.Int64
	breakerOpen     atomic.Int64
	degraded        atomic.Int64
	transportErrors atomic.Int64
	serverErrors    atomic.Int64
}

// New builds a Client; see Config for defaults.
func New(cfg Config) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, errors.New("client: Config.BaseURL is required")
	}
	cfg = cfg.withDefaults()
	return &Client{
		cfg:     cfg,
		breaker: breaker{threshold: cfg.BreakerThreshold, cooldown: cfg.BreakerCooldown},
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}, nil
}

// Stats returns a snapshot of the cumulative counters.
func (c *Client) Stats() Stats {
	return Stats{
		Attempts:        c.attempts.Load(),
		Retries:         c.retries.Load(),
		BreakerOpen:     c.breakerOpen.Load(),
		Degraded:        c.degraded.Load(),
		TransportErrors: c.transportErrors.Load(),
		ServerErrors:    c.serverErrors.Load(),
	}
}

// Optimize calls /v1/optimize: the principle-based one-shot optimum.
func (c *Client) Optimize(ctx context.Context, req OptimizeRequest) (*OptimizeResponse, error) {
	var out OptimizeResponse
	if err := c.do(ctx, http.MethodPost, "/v1/optimize", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Plan calls /v1/plan: fusion planning over an operator chain.
func (c *Client) Plan(ctx context.Context, req PlanRequest) (*PlanResponse, error) {
	var out PlanResponse
	if err := c.do(ctx, http.MethodPost, "/v1/plan", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Search calls /v1/search: the DAT-style search baseline. A response with
// Degraded set is the server's principle fallback, not a scan result.
func (c *Client) Search(ctx context.Context, req SearchRequest) (*SearchResponse, error) {
	var out SearchResponse
	if err := c.do(ctx, http.MethodPost, "/v1/search", req, &out); err != nil {
		return nil, err
	}
	if out.Degraded {
		c.degraded.Add(1)
	}
	return &out, nil
}

// Evaluate calls /v1/evaluate: cross-platform workload evaluation.
func (c *Client) Evaluate(ctx context.Context, req EvaluateRequest) (*EvaluateResponse, error) {
	var out EvaluateResponse
	if err := c.do(ctx, http.MethodPost, "/v1/evaluate", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Version calls /v1/version: the server's API and cost-model versions (and
// the retired table-format version, frozen at 1).
func (c *Client) Version(ctx context.Context) (*VersionResponse, error) {
	var out VersionResponse
	if err := c.do(ctx, http.MethodGet, "/v1/version", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// attemptResult is one attempt's outcome: err == nil means done.
type attemptResult struct {
	err       error
	retryable bool
	// delayHint overrides the exponential backoff before the next attempt
	// (the server's Retry-After); zero means use the backoff schedule.
	delayHint time.Duration
}

func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var payload []byte
	if in != nil {
		var err error
		if payload, err = json.Marshal(in); err != nil {
			return fmt.Errorf("client: encode request: %w", err)
		}
	}
	var slept time.Duration
	var last attemptResult
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			delay := last.delayHint
			if delay <= 0 {
				delay = c.backoff(attempt)
			}
			if c.cfg.RetryBudget > 0 && slept+delay > c.cfg.RetryBudget {
				return fmt.Errorf("client: retry budget %v exhausted after %d attempts: %w",
					c.cfg.RetryBudget, attempt, last.err)
			}
			slept += delay
			c.retries.Add(1)
			if err := c.cfg.Sleep(ctx, delay); err != nil {
				return fmt.Errorf("client: canceled while backing off: %w", err)
			}
		}
		if err := c.breaker.allow(c.cfg.Now()); err != nil {
			c.breakerOpen.Add(1)
			if last.err != nil {
				return fmt.Errorf("%w (last failure: %v)", err, last.err)
			}
			return err
		}
		c.attempts.Add(1)
		last = c.attempt(ctx, method, path, payload, out)
		if last.err == nil {
			return nil
		}
		if !last.retryable {
			return last.err
		}
	}
	return fmt.Errorf("client: %d attempts exhausted: %w", c.cfg.MaxAttempts, last.err)
}

// backoff returns the full-jitter delay before the given retry (1-based):
// uniform in [0, min(MaxBackoff, BaseBackoff·2^(retry-1))].
func (c *Client) backoff(retry int) time.Duration {
	ceiling := c.cfg.BaseBackoff << uint(retry-1)
	if ceiling > c.cfg.MaxBackoff || ceiling <= 0 {
		ceiling = c.cfg.MaxBackoff
	}
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return time.Duration(c.rng.Int63n(int64(ceiling) + 1))
}

func (c *Client) attempt(ctx context.Context, method, path string, payload []byte, out any) attemptResult {
	actx := ctx
	if c.cfg.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, c.cfg.AttemptTimeout)
		defer cancel()
	}
	var reqBody io.Reader
	if payload != nil {
		reqBody = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(actx, method, c.cfg.BaseURL+path, reqBody)
	if err != nil {
		return attemptResult{err: fmt.Errorf("client: build request: %w", err)}
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}

	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			// The caller's own context died: not a server failure, no retry.
			return attemptResult{err: fmt.Errorf("client: %s: %w", path, err)}
		}
		// Transport failure or per-attempt timeout: the server is unwell.
		c.transportErrors.Add(1)
		c.breaker.failure(c.cfg.Now())
		return attemptResult{err: fmt.Errorf("client: %s: %w", path, err), retryable: true}
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		c.transportErrors.Add(1)
		c.breaker.failure(c.cfg.Now())
		return attemptResult{err: fmt.Errorf("client: %s: read response: %w", path, err), retryable: true}
	}

	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, out); err != nil {
			return attemptResult{err: fmt.Errorf("client: %s: decode response: %w", path, err)}
		}
		c.breaker.success()
		return attemptResult{}
	}

	apiErr := &APIError{Status: resp.StatusCode, Code: "unknown", Message: string(body)}
	var env errorEnvelope
	if jerr := json.Unmarshal(body, &env); jerr == nil && env.Error.Code != "" {
		apiErr.Code, apiErr.Message = env.Error.Code, env.Error.Message
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		// Overload shedding is the admission gate doing its job, not a
		// server fault: retry when it says, and leave the breaker alone.
		var hint time.Duration
		if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
			hint = time.Duration(s) * time.Second
		}
		return attemptResult{err: apiErr, retryable: true, delayHint: hint}
	case resp.StatusCode >= 500:
		c.serverErrors.Add(1)
		c.breaker.failure(c.cfg.Now())
		return attemptResult{err: apiErr, retryable: true}
	default:
		// A 4xx is a deliberate, healthy answer about this request.
		c.breaker.success()
		return attemptResult{err: apiErr}
	}
}

// breaker is a consecutive-failure circuit breaker. While open it rejects
// calls outright; after cooldown it admits exactly one half-open probe whose
// outcome decides between re-closing and re-opening.
type breaker struct {
	threshold int
	cooldown  time.Duration

	mu       sync.Mutex
	fails    int
	state    breakerState
	openedAt time.Time
}

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (b *breaker) allow(now time.Time) error {
	if b.threshold < 0 {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		if now.Sub(b.openedAt) >= b.cooldown {
			b.state = breakerHalfOpen // this caller becomes the probe
			return nil
		}
		return ErrBreakerOpen
	case breakerHalfOpen:
		return ErrBreakerOpen // a probe is already in flight
	default:
		return nil
	}
}

func (b *breaker) success() {
	if b.threshold < 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	b.state = breakerClosed
}

func (b *breaker) failure(now time.Time) {
	if b.threshold < 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	if b.state == breakerHalfOpen || b.fails >= b.threshold {
		b.state = breakerOpen
		b.openedAt = now
	}
}
