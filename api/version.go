package api

// Version is the wire-API version every schema in this package belongs to.
// It changes only on a breaking change to the JSON layout pinned by
// wire_test.go; the /v1/ URL prefix tracks it.
const Version = "v1"

// TableFormatVersion is the format generation of the persisted
// candidate-table artifacts replicas once loaded. No program writes or
// reads those artifacts any more, but GET /v1/version keeps its v1 layout,
// so the field stays and always reads this frozen value.
const TableFormatVersion = 1

// VersionResponse is GET /v1/version: the coordinates that decide whether
// two processes may share traffic. Replicas behind one router must agree on
// CostModelVersion (the router refuses mixed fleets — answers computed
// under different cost semantics are not bit-identical).
// TableFormatVersion is retired and always TableFormatVersion (1).
type VersionResponse struct {
	APIVersion         string `json:"api_version"`
	CostModelVersion   string `json:"cost_model_version"`
	TableFormatVersion int    `json:"table_format_version"`
}
