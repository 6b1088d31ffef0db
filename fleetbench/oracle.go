package main

// The correctness oracle. Every expected answer comes from an engine other
// than the one serving the endpoint, called in process:
//
//	/v1/optimize (core)           ← search.OptimizeAnalytic
//	/v1/search auto (search)      ← core.Optimize
//	/v1/search exhaustive, coarse ← search.ReferenceExhaustive, ReferenceCoarse
//	/v1/plan                      ← core.PlanChain
//	/v1/evaluate                  ← arch.Platform.EvaluateWorkload
//
// and every per-operator memory access must also be at least
// bound.LowerBound.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"

	"fusecu/api"
	"fusecu/internal/arch"
	"fusecu/internal/bound"
	"fusecu/internal/core"
	"fusecu/internal/model"
	"fusecu/internal/op"
	"fusecu/internal/search"
)

// expectation is one request's expected answer in the reduced form of
// load.go's *Answer functions.
type expectation struct {
	Vals []int64 `json:"v"`
	// LB[i] > 0 is the lower bound the answer's Vals[i], a per-operator
	// memory access, may not undercut.
	LB []int64 `json:"lb,omitempty"`
}

// oracle maps request keys to expected answers.
type oracle map[string]expectation

// check reports whether got is the expected answer for key.
func (o oracle) check(key string, got []int64) bool {
	want, ok := o[key]
	if !ok || !slices.Equal(want.Vals, got) {
		return false
	}
	for i, lb := range want.LB {
		if lb > 0 && got[i] < lb {
			return false
		}
	}
	return true
}

func matmul(o api.OpSpec) op.MatMul { return op.MatMul{Name: o.Name, M: o.M, K: o.K, L: o.L} }

// expect computes one request's expected answer.
func expect(r request) (expectation, error) {
	switch b := r.Body.(type) {
	case *api.OptimizeRequest:
		mm := matmul(b.Op)
		res, err := search.OptimizeAnalytic(mm, b.Buffer)
		if err != nil {
			return expectation{}, err
		}
		return single(mm, b.Buffer, res.Access.Total), nil
	case *api.SearchRequest:
		mm := matmul(b.Op)
		var ma int64
		switch b.Engine {
		case "auto":
			res, err := core.Optimize(mm, b.Buffer)
			if err != nil {
				return expectation{}, err
			}
			ma = res.Access.Total
		case "exhaustive", "coarse":
			ref := search.ReferenceExhaustive
			if b.Engine == "coarse" {
				ref = search.ReferenceCoarse
			}
			res, err := ref(mm, b.Buffer)
			if err != nil {
				return expectation{}, err
			}
			ma = res.Access.Total
		default:
			return expectation{}, fmt.Errorf("no oracle for engine %q", b.Engine)
		}
		return single(mm, b.Buffer, ma), nil
	case *api.PlanRequest:
		ops := make([]op.MatMul, len(b.Ops))
		for i, o := range b.Ops {
			ops[i] = matmul(o)
		}
		chain, err := op.NewChain(b.Name, ops...)
		if err != nil {
			return expectation{}, err
		}
		plan, err := core.PlanChain(chain, b.Buffer)
		if err != nil {
			return expectation{}, err
		}
		var e expectation
		for _, g := range plan.Groups {
			lb := int64(0)
			if !g.Fusedp() {
				lb = bound.LowerBound(ops[g.Start], b.Buffer)
			}
			e.Vals = append(e.Vals, g.MA)
			e.LB = append(e.LB, lb)
		}
		e.Vals = append(e.Vals, plan.TotalMA, plan.UnfusedMA)
		return e, nil
	case *api.EvaluateRequest:
		cfg, err := model.ByName(b.Model)
		if err != nil {
			return expectation{}, err
		}
		w, err := cfg.Build()
		if err != nil {
			return expectation{}, err
		}
		var e expectation
		for _, p := range arch.All() {
			res, err := p.EvaluateWorkload(w)
			if err != nil {
				return expectation{}, err
			}
			e.Vals = append(e.Vals, res.MA, res.Cycles, res.MACs, int64(math.Float64bits(res.Utilization)))
		}
		return e, nil
	}
	return expectation{}, fmt.Errorf("no oracle for %T", r.Body)
}

func single(mm op.MatMul, buffer, ma int64) expectation {
	return expectation{Vals: []int64{ma}, LB: []int64{bound.LowerBound(mm, buffer)}}
}

// buildOracle computes every request's expectation on all cores.
func buildOracle(reqs []request) (oracle, error) {
	exps := make([]expectation, len(reqs))
	errs := make([]error, len(reqs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				exps[i], errs[i] = expect(reqs[i])
			}
		}()
	}
	for i := range reqs {
		next <- i
	}
	close(next)
	wg.Wait()
	o := make(oracle, len(reqs))
	for i, r := range reqs {
		if errs[i] != nil {
			return nil, fmt.Errorf("oracle for %s: %w", r.Key, errs[i])
		}
		o[r.Key] = exps[i]
	}
	return o, nil
}

// loadOracle returns the workload's oracle from dir, computing and storing
// it on first use. The file name carries a hash of this executable, which
// links every engine the oracle calls, so a changed engine never reuses a
// stale oracle.
func loadOracle(dir, workload string, reqs []request) (oracle, error) {
	sum, err := selfHash()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("oracle-%s-%s.json", workload, sum))
	if b, err := os.ReadFile(path); err == nil {
		var o oracle
		if json.Unmarshal(b, &o) == nil && covers(o, reqs) {
			return o, nil
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	o, err := buildOracle(reqs)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(o)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return nil, err
	}
	return o, os.Rename(tmp, path)
}

func covers(o oracle, reqs []request) bool {
	for _, r := range reqs {
		if _, ok := o[r.Key]; !ok {
			return false
		}
	}
	return true
}

func selfHash() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}
