package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fusecu/api"
)

func TestRequestSets(t *testing.T) {
	for name, want := range map[string]int{
		"principle-llm": 58*11 + 71*11 + 7,
		"search-llm":    58 * 11,
		"search-hot":    9 * 3 * 2,
	} {
		reqs, err := requestSet(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(reqs) != want {
			t.Errorf("%s has %d requests, want %d", name, len(reqs), want)
		}
		keys := map[string]bool{}
		warm := 0
		for _, r := range reqs {
			if keys[r.Key] {
				t.Errorf("%s: duplicate key %s", name, r.Key)
			}
			keys[r.Key] = true
			if r.Warm {
				warm++
			}
		}
		if warm == 0 || warm == len(reqs) {
			t.Errorf("%s: %d of %d requests warm the fleet", name, warm, len(reqs))
		}
	}
	if _, err := requestSet("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func take(s *sequence, n int) []int {
	out := make([]int, n)
	for i := range out {
		_, out[i] = s.next()
	}
	return out
}

func TestSequenceIsSeeded(t *testing.T) {
	const n = 50
	a, b := take(newSequence(n, 7), 3*n), take(newSequence(n, 7), 3*n)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7 differs at position %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := take(newSequence(n, 8), 3*n)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("seeds 7 and 8 give the same sequence")
	}
}

func TestEveryPassCoversTheRequestSet(t *testing.T) {
	const n, passes = 37, 4
	seq := take(newSequence(n, 3), n*passes)
	for p := 0; p < passes; p++ {
		seen := make([]bool, n)
		for _, r := range seq[p*n : (p+1)*n] {
			if seen[r] {
				t.Fatalf("pass %d sends request %d twice", p, r)
			}
			seen[r] = true
		}
	}
	if equal(seq[:n], seq[n:2*n]) {
		t.Error("consecutive passes share one order")
	}
}

func equal(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSequenceIsTheSameUnderConcurrentClients(t *testing.T) {
	const n, total = 40, 400
	want := take(newSequence(n, 11), total)
	seq := newSequence(n, 11)
	got := make([]int, total)
	var mu sync.Mutex
	drive(context.Background(), clients, func() (item, bool) {
		id, req := seq.next()
		return item{id, req}, id < total
	}, func(_ int, it item) {
		mu.Lock()
		got[it.id] = it.req
		mu.Unlock()
	})
	if !equal(got, want) {
		t.Error("request at some position depends on which client took it")
	}
}

func TestOpenConnectionsStayWithinClientCount(t *testing.T) {
	var open, maxOpen, busy, maxBusy atomic.Int64
	raise := func(m *atomic.Int64, v int64) {
		for {
			cur := m.Load()
			if v <= cur || m.CompareAndSwap(cur, v) {
				return
			}
		}
	}
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		raise(&maxBusy, busy.Add(1))
		defer busy.Add(-1)
		time.Sleep(200 * time.Microsecond)
		_ = json.NewEncoder(w).Encode(api.SearchResponse{Dataflow: api.Dataflow{MemoryAccess: 42}})
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		switch s {
		case http.StateNew:
			raise(&maxOpen, open.Add(1))
		case http.StateClosed, http.StateHijacked:
			open.Add(-1)
		}
	}
	srv.Start()
	defer srv.Close()

	reqs := []request{{Key: "k", Body: &api.SearchRequest{Op: api.OpSpec{M: 2, K: 2, L: 2}, Buffer: 12}}}
	c, err := newClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	recs := phase(context.Background(), c, reqs, oracle{"k": {Vals: []int64{42}}}, timed(newSequence(1, 1), 300*time.Millisecond))
	attempted, failed, wrong := tally(recs)
	if attempted < 100 || failed != 0 || wrong != 0 {
		t.Fatalf("attempted %d, failed %d, wrong %d", attempted, failed, wrong)
	}
	if maxOpen.Load() > clients || maxBusy.Load() > clients {
		t.Errorf("%d connections open and %d requests in flight at most, want ≤ %d", maxOpen.Load(), maxBusy.Load(), clients)
	}
}

func TestMeasuredPhaseLeavesProbesOutOfTheWindows(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(api.SearchResponse{Dataflow: api.Dataflow{MemoryAccess: 42}})
	}))
	defer srv.Close()
	probe, err := newHostProbe()
	if err != nil {
		t.Fatal(err)
	}
	defer probe.close()
	c, err := newClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	const n = 7
	reqs := make([]request, n)
	want := oracle{}
	for i := range reqs {
		reqs[i] = request{Key: fmt.Sprint(i), Body: &api.SearchRequest{Op: api.OpSpec{M: 2, K: 2, L: 2}, Buffer: 12}}
		want[reqs[i].Key] = expectation{Vals: []int64{42}}
	}
	start := time.Now()
	recs, probes, err := measuredPhase(context.Background(), c, reqs, want, newSequence(n, 3), time.Second, probe)
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if attempted, failed, wrong := tally(recs); attempted%n != 0 || failed != 0 || wrong != 0 {
		t.Fatalf("attempted %d (want whole passes of %d), failed %d, wrong %d", attempted, n, failed, wrong)
	}
	// One 2 s block outlasts the 1 s asked for: a probe before it and one after.
	if len(probes) != 2 {
		t.Fatalf("%d probes, want 2", len(probes))
	}
	var probed, last time.Duration
	for _, p := range probes {
		if p <= 0 {
			t.Fatalf("probe took %v ms", p)
		}
		probed += time.Duration(p * float64(time.Millisecond))
	}
	for _, r := range recs {
		last = max(last, r.end)
	}
	if last < blockSpan || last > wall-probed {
		t.Errorf("last completion at %v under load, want within [%v, %v]: the probes' time left out", last, blockSpan, wall-probed)
	}
}

func TestPassesEndAtAPassBoundary(t *testing.T) {
	const n = 30
	seq := newSequence(n, 5)
	sent := 0
	for {
		// The deadline passes a third of the way into the second pass.
		_, _, ok := seq.nextInPass(func() bool { return sent >= n+n/3 })
		if !ok {
			break
		}
		sent++
	}
	if sent != 2*n {
		t.Errorf("sent %d requests, want the %d of two whole passes", sent, 2*n)
	}
	if _, ok := passes(newSequence(n, 5), 0)(); ok {
		t.Error("a run whose time is up began a pass")
	}
}
