package main

import (
	"context"
	"net/http/httptest"
	"testing"

	"fusecu/api"
	"fusecu/internal/service"
)

// oracleRequests covers every oracle path on inputs small enough for a
// unit test.
func oracleRequests() []request {
	small := api.OpSpec{Name: "s", M: 24, K: 20, L: 28}
	return []request{
		{Key: "optimize", Body: &api.OptimizeRequest{Op: small, Buffer: 300}},
		{Key: "plan", Body: &api.PlanRequest{Name: "ffn", Ops: []api.OpSpec{
			{Name: "fc1", M: 64, K: 32, L: 128}, {Name: "fc2", M: 64, K: 128, L: 32}}, Buffer: 2048}},
		{Key: "evaluate", Body: &api.EvaluateRequest{Model: "Blenderbot"}},
		{Key: "auto", Body: &api.SearchRequest{Op: small, Buffer: 300, Engine: "auto"}},
		{Key: "exhaustive", Body: &api.SearchRequest{Op: small, Buffer: 300, Engine: "exhaustive"}},
		{Key: "coarse", Body: &api.SearchRequest{Op: small, Buffer: 300, Engine: "coarse"}},
	}
}

// runAgainst sends every request once to an in-process service and
// returns the records.
func runAgainst(t *testing.T, reqs []request, want oracle) []record {
	t.Helper()
	srv := httptest.NewServer(service.New(service.Config{}).Handler())
	defer srv.Close()
	c, err := newClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, len(reqs))
	for i := range all {
		all[i] = i
	}
	return phase(context.Background(), c, reqs, want, listed(all))
}

func TestOracleAgreesWithTheService(t *testing.T) {
	reqs := oracleRequests()
	want, err := buildOracle(reqs)
	if err != nil {
		t.Fatal(err)
	}
	recs := runAgainst(t, reqs, want)
	if attempted, failed, wrong := tally(recs); attempted != len(reqs) || failed != 0 || wrong != 0 {
		t.Fatalf("attempted %d, failed %d, wrong %d: %s", attempted, failed, wrong, firstProblem(recs, reqs))
	}
}

func TestCorruptedExpectationIsReported(t *testing.T) {
	reqs := oracleRequests()
	want, err := buildOracle(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"optimize", "plan", "evaluate", "auto", "exhaustive", "coarse"} {
		t.Run(key, func(t *testing.T) {
			bad := oracle{}
			for k, v := range want {
				bad[k] = v
			}
			e := bad[key]
			e.Vals = append([]int64(nil), e.Vals...)
			e.Vals[len(e.Vals)-1]++
			bad[key] = e

			recs := runAgainst(t, reqs, bad)
			_, failed, wrong := tally(recs)
			if failed != 0 || wrong != 1 {
				t.Fatalf("failed %d, wrong %d; want exactly the corrupted answer reported", failed, wrong)
			}
			if p := firstProblem(recs, reqs); p != key+" answered differently from the oracle" {
				t.Errorf("reported %q", p)
			}
		})
	}
}

func TestAnswerBelowLowerBoundIsWrong(t *testing.T) {
	o := oracle{"k": {Vals: []int64{100, 7}, LB: []int64{101}}}
	if o.check("k", []int64{100, 7}) {
		t.Error("an answer below its lower bound passed")
	}
	o["k"] = expectation{Vals: []int64{100, 7}, LB: []int64{100}}
	if !o.check("k", []int64{100, 7}) {
		t.Error("an answer at its lower bound failed")
	}
	if o.check("missing", []int64{100, 7}) {
		t.Error("an answer without an expectation passed")
	}
}

func TestOracleCache(t *testing.T) {
	dir := t.TempDir()
	reqs := oracleRequests()[:1]
	first, err := loadOracle(dir, "unit", reqs)
	if err != nil {
		t.Fatal(err)
	}
	again, err := loadOracle(dir, "unit", reqs)
	if err != nil {
		t.Fatal(err)
	}
	if !again.check("optimize", first["optimize"].Vals) {
		t.Error("cached oracle differs from the computed one")
	}
}
