// Package api is the single source of truth for the fusecu-serve wire
// contract: the v1 request/response schemas, the uniform error envelope and
// its machine-readable codes, and the version-introspection schema.
//
// internal/service marshals these exact structs, the client package
// consumes them (its exported wire names are aliases), and cmd/fusecu-route
// passes them through unparsed — so a field rename here is a deliberate,
// visible wire-format change instead of a silent drift between the server's
// private mirror and the client's copy. The JSON layout is pinned by golden
// tests in wire_test.go; changing it requires bumping Version.
package api

// OpSpec is the wire form of one matrix multiplication A(M×K) · B(K×L).
type OpSpec struct {
	Name string `json:"name,omitempty"`
	M    int    `json:"m"`
	K    int    `json:"k"`
	L    int    `json:"l"`
}

// Dataflow is the wire form of a tiling + scheduling decision returned by
// the optimizer and search endpoints.
type Dataflow struct {
	Order        string   `json:"order"`
	TM           int      `json:"tm"`
	TK           int      `json:"tk"`
	TL           int      `json:"tl"`
	NRA          string   `json:"nra"`
	MemoryAccess int64    `json:"memory_access"`
	PerTensor    [3]int64 `json:"per_tensor"`
}

// OptimizeRequest asks /v1/optimize for the principle-based one-shot optimum.
type OptimizeRequest struct {
	Op        OpSpec `json:"op"`
	Buffer    int64  `json:"buffer"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// OptimizeResponse is /v1/optimize's answer.
type OptimizeResponse struct {
	Regime     string   `json:"regime"`
	Principle  int      `json:"principle"`
	Note       string   `json:"note"`
	Dataflow   Dataflow `json:"dataflow"`
	Considered int      `json:"considered"`
}

// PlanRequest asks /v1/plan for a fusion plan over an operator chain.
type PlanRequest struct {
	Name      string   `json:"name"`
	Ops       []OpSpec `json:"ops"`
	Buffer    int64    `json:"buffer"`
	TimeoutMS int64    `json:"timeout_ms,omitempty"`
}

// PlanGroup is one fused (or standalone) segment of the planned chain.
type PlanGroup struct {
	Start        int    `json:"start"`
	Len          int    `json:"len"`
	Fused        bool   `json:"fused"`
	MemoryAccess int64  `json:"memory_access"`
	Pattern      string `json:"pattern,omitempty"`
}

// PlanDecision is the per-pair Principle 4 fuse/no-fuse verdict.
type PlanDecision struct {
	Pair      int   `json:"pair"`
	SameNRA   bool  `json:"same_nra"`
	Fuse      bool  `json:"fuse"`
	UnfusedMA int64 `json:"unfused_ma"`
	FusedMA   int64 `json:"fused_ma"`
	Gain      int64 `json:"gain"`
}

// PlanResponse is /v1/plan's answer.
type PlanResponse struct {
	Chain     string         `json:"chain"`
	Groups    []PlanGroup    `json:"groups"`
	Decisions []PlanDecision `json:"decisions"`
	TotalMA   int64          `json:"total_ma"`
	UnfusedMA int64          `json:"unfused_ma"`
	Saving    float64        `json:"saving"`
}

// SearchRequest asks /v1/search for a search answer: the exact analytic
// engine's, or one of the DAT-style baseline engines'.
type SearchRequest struct {
	Op     OpSpec `json:"op"`
	Buffer int64  `json:"buffer"`
	// Seed seeds the "genetic" engine; 0 selects its default seed 1. The
	// other engines are deterministic and ignore it.
	Seed int64 `json:"seed,omitempty"`
	// Workers is accepted for compatibility and ignored: every engine
	// answers on the request goroutine, with no worker pool to size.
	Workers int `json:"workers,omitempty"`
	// Engine selects the search strategy: "auto" (default — the exact
	// canonical walk over every integer tiling, reported as "analytic"),
	// "exhaustive" (the same walk and answer, reported as "exhaustive"),
	// "coarse" (the walk over the TileGrid lattice, reported as
	// "exhaustive-coarse"), or "genetic" (DAT's GA). The walks return the
	// exact answer of a full scan of their lattice, tie-winner included.
	Engine    string `json:"engine,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// SearchResponse is /v1/search's answer.
type SearchResponse struct {
	Method   string   `json:"method"`
	Dataflow Dataflow `json:"dataflow"`
	// Evaluations counts the cost-model invocations this answer took.
	// CacheHits is retired and always 0: it counted the candidate visits a
	// server-side candidate table answered, and servers keep no tables.
	Evaluations int64 `json:"evaluations"`
	CacheHits   int64 `json:"cache_hits"`
	// Degraded marks a principle-based fallback answer produced when the
	// scan could not finish inside its deadline budget (or failed
	// internally); it is still feasible and never worse than the principle
	// optimum, but carries no baseline-scan statistics. DegradedReason says
	// which ("deadline" or "engine_failure").
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`
}

// EvaluateRequest asks /v1/evaluate to run a named workload across platforms.
type EvaluateRequest struct {
	// Model names a Table II configuration; Seq (optional, LLaMA2 only)
	// overrides the sequence length as in the Fig. 11 sweep.
	Model string `json:"model"`
	Seq   int    `json:"seq,omitempty"`
	// Platforms restricts evaluation; empty means all five.
	Platforms []string `json:"platforms,omitempty"`
	TimeoutMS int64    `json:"timeout_ms,omitempty"`
}

// PlatformResult is one platform's row in an EvaluateResponse.
type PlatformResult struct {
	Platform     string  `json:"platform"`
	MemoryAccess int64   `json:"memory_access"`
	Cycles       int64   `json:"cycles"`
	MACs         int64   `json:"macs"`
	Utilization  float64 `json:"utilization"`
}

// EvaluateResponse is /v1/evaluate's answer.
type EvaluateResponse struct {
	Workload string           `json:"workload"`
	Results  []PlatformResult `json:"results"`
}

// ErrorBody is the machine-readable payload of the uniform error envelope.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorEnvelope is the uniform JSON error body every non-2xx response
// carries, on every endpoint, from both fusecu-serve and fusecu-route.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// Error codes carried in ErrorBody.Code. The service's HTTP status decides
// retry semantics; the code names the cause for logs and dashboards.
const (
	CodeInvalidRequest      = "invalid_request"
	CodeBufferTooSmall      = "buffer_too_small"
	CodeInfeasible          = "infeasible"
	CodeNotFound            = "not_found"
	CodeMethodNotAllowed    = "method_not_allowed"
	CodeOverloaded          = "overloaded"
	CodeDraining            = "draining"
	CodeInternalError       = "internal_error"
	CodeInternal            = "internal"
	CodeDeadlineExceeded    = "deadline_exceeded"
	CodeClientClosedRequest = "client_closed_request"
	// CodeNoBackend is fusecu-route's answer when no healthy replica is
	// available, or when every attempt at one failed.
	CodeNoBackend = "no_backend"
	// CodeVersionMismatch marks a router refusing a fleet whose replicas
	// disagree on the cost-model version.
	CodeVersionMismatch = "version_mismatch"
)
