package api

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestWireGoldenJSON pins the v1 JSON layout of every wire schema: these
// strings are the compatibility contract with deployed clients and must not
// change without bumping Version. Each case is marshaled and compared
// byte-for-byte, then unmarshaled back and compared structurally, so both
// field names and value round-tripping are pinned at once.
func TestWireGoldenJSON(t *testing.T) {
	df := Dataflow{Order: "M→L→K", TM: 8, TK: 4, TL: 2, NRA: "Two-NRA",
		MemoryAccess: 1234, PerTensor: [3]int64{100, 1000, 134}}
	cases := []struct {
		name string
		v    any
		want string
	}{
		{"op_spec", OpSpec{Name: "proj", M: 256, K: 192, L: 192},
			`{"name":"proj","m":256,"k":192,"l":192}`},
		{"op_spec_unnamed", OpSpec{M: 1, K: 2, L: 3},
			`{"m":1,"k":2,"l":3}`},
		{"dataflow", df,
			`{"order":"M→L→K","tm":8,"tk":4,"tl":2,"nra":"Two-NRA","memory_access":1234,"per_tensor":[100,1000,134]}`},
		{"optimize_request", OptimizeRequest{Op: OpSpec{M: 4, K: 5, L: 6}, Buffer: 4096, TimeoutMS: 250},
			`{"op":{"m":4,"k":5,"l":6},"buffer":4096,"timeout_ms":250}`},
		{"optimize_response", OptimizeResponse{Regime: "medium", Principle: 2, Note: "n", Dataflow: df, Considered: 3},
			`{"regime":"medium","principle":2,"note":"n","dataflow":{"order":"M→L→K","tm":8,"tk":4,"tl":2,"nra":"Two-NRA","memory_access":1234,"per_tensor":[100,1000,134]},"considered":3}`},
		{"plan_request", PlanRequest{Name: "ffn", Ops: []OpSpec{{M: 1, K: 2, L: 3}}, Buffer: 64},
			`{"name":"ffn","ops":[{"m":1,"k":2,"l":3}],"buffer":64}`},
		{"plan_response", PlanResponse{
			Chain:     "ffn",
			Groups:    []PlanGroup{{Start: 0, Len: 2, Fused: true, MemoryAccess: 77, Pattern: "LOS"}},
			Decisions: []PlanDecision{{Pair: 0, SameNRA: true, Fuse: true, UnfusedMA: 100, FusedMA: 77, Gain: 23}},
			TotalMA:   77, UnfusedMA: 100, Saving: 0.23},
			`{"chain":"ffn","groups":[{"start":0,"len":2,"fused":true,"memory_access":77,"pattern":"LOS"}],"decisions":[{"pair":0,"same_nra":true,"fuse":true,"unfused_ma":100,"fused_ma":77,"gain":23}],"total_ma":77,"unfused_ma":100,"saving":0.23}`},
		{"search_request", SearchRequest{Op: OpSpec{M: 7, K: 8, L: 9}, Buffer: 512, Seed: 1, Workers: 2, Engine: "exhaustive", TimeoutMS: 100},
			`{"op":{"m":7,"k":8,"l":9},"buffer":512,"seed":1,"workers":2,"engine":"exhaustive","timeout_ms":100}`},
		{"search_response", SearchResponse{Method: "table", Dataflow: df, Evaluations: 10, CacheHits: 20},
			`{"method":"table","dataflow":{"order":"M→L→K","tm":8,"tk":4,"tl":2,"nra":"Two-NRA","memory_access":1234,"per_tensor":[100,1000,134]},"evaluations":10,"cache_hits":20}`},
		{"search_response_degraded", SearchResponse{Method: "principle", Dataflow: df, Degraded: true, DegradedReason: "deadline"},
			`{"method":"principle","dataflow":{"order":"M→L→K","tm":8,"tk":4,"tl":2,"nra":"Two-NRA","memory_access":1234,"per_tensor":[100,1000,134]},"evaluations":0,"cache_hits":0,"degraded":true,"degraded_reason":"deadline"}`},
		{"evaluate_request", EvaluateRequest{Model: "LLaMA2", Seq: 1024, Platforms: []string{"FuseCU"}},
			`{"model":"LLaMA2","seq":1024,"platforms":["FuseCU"]}`},
		{"evaluate_response", EvaluateResponse{Workload: "LLaMA2", Results: []PlatformResult{
			{Platform: "FuseCU", MemoryAccess: 9, Cycles: 8, MACs: 7, Utilization: 0.5}}},
			`{"workload":"LLaMA2","results":[{"platform":"FuseCU","memory_access":9,"cycles":8,"macs":7,"utilization":0.5}]}`},
		{"error_envelope", ErrorEnvelope{Error: ErrorBody{Code: CodeInfeasible, Message: "no feasible dataflow"}},
			`{"error":{"code":"infeasible","message":"no feasible dataflow"}}`},
		{"version_response", VersionResponse{APIVersion: "v1", CostModelVersion: "cm1", TableFormatVersion: 1},
			`{"api_version":"v1","cost_model_version":"cm1","table_format_version":1}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := json.Marshal(tc.v)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != tc.want {
				t.Fatalf("wire format drifted:\n got  %s\n want %s", got, tc.want)
			}
			back := reflect.New(reflect.TypeOf(tc.v))
			if err := json.Unmarshal([]byte(tc.want), back.Interface()); err != nil {
				t.Fatalf("unmarshal golden: %v", err)
			}
			if !reflect.DeepEqual(back.Elem().Interface(), tc.v) {
				t.Fatalf("golden round-trip drifted:\n got  %+v\n want %+v", back.Elem().Interface(), tc.v)
			}
		})
	}
}
