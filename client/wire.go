package client

import (
	"fmt"

	"fusecu/api"
)

// The wire schemas are defined once, in the public api package, and aliased
// here so existing client code keeps compiling against the same names. The
// server marshals the identical structs — there is no client-side copy to
// drift.
type (
	// OpSpec is the wire form of one matrix multiplication A(M×K) · B(K×L).
	OpSpec = api.OpSpec
	// Dataflow is the wire form of a tiling + scheduling decision returned
	// by the optimizer and search endpoints.
	Dataflow = api.Dataflow

	// OptimizeRequest asks /v1/optimize for the principle-based optimum.
	OptimizeRequest  = api.OptimizeRequest
	OptimizeResponse = api.OptimizeResponse

	// PlanRequest asks /v1/plan for a fusion plan over an operator chain.
	PlanRequest  = api.PlanRequest
	PlanGroup    = api.PlanGroup
	PlanDecision = api.PlanDecision
	PlanResponse = api.PlanResponse

	// SearchRequest asks /v1/search for a DAT-style search-baseline answer.
	SearchRequest  = api.SearchRequest
	SearchResponse = api.SearchResponse

	// EvaluateRequest asks /v1/evaluate to run a named workload across
	// platforms.
	EvaluateRequest  = api.EvaluateRequest
	PlatformResult   = api.PlatformResult
	EvaluateResponse = api.EvaluateResponse

	// VersionResponse is /v1/version's compatibility triple.
	VersionResponse = api.VersionResponse
)

// errorEnvelope mirrors the server's uniform error body.
type errorEnvelope = api.ErrorEnvelope

// APIError is a non-2xx response from the service, carrying the HTTP status
// and the machine-readable code from the uniform error envelope.
type APIError struct {
	Status  int
	Code    string
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("fusecu api error: status %d code %q: %s", e.Status, e.Code, e.Message)
}
