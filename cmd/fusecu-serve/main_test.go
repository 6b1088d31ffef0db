package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"fusecu/internal/faultinject"
	"fusecu/internal/search"
)

// slowSearch arms latency on every cost evaluation (search.SiteEval) in
// this process for the rest of the test: the daemon under test runs
// in-process, so a search it would answer in microseconds stays in flight
// for about delay times its evaluation count.
func slowSearch(t *testing.T, delay time.Duration) {
	t.Helper()
	faultinject.Activate(faultinject.New(1,
		faultinject.Plan{Site: search.SiteEval, Mode: faultinject.ModeLatency, Delay: delay}))
	t.Cleanup(faultinject.Deactivate)
}

func TestRunFlagErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-bogus"}},
		{"positional args", []string{"extra"}},
		{"bad max-inflight", []string{"-max-inflight", "0"}},
		{"bad timeout", []string{"-timeout", "-1s"}},
		// Flags of the retired candidate-table tier fail startup loudly
		// rather than being silently ignored.
		{"retired table-dir", []string{"-table-dir", "/tmp"}},
		{"retired admin", []string{"-admin"}},
		{"retired workers", []string{"-workers", "4"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr, nil); code != 2 {
				t.Fatalf("exit code = %d, want 2 (stderr: %s)", code, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Fatalf("usage error wrote to stdout: %q", stdout.String())
			}
			if !strings.Contains(stderr.String(), "Usage") && !strings.Contains(stderr.String(), "flag") {
				t.Fatalf("stderr missing usage text: %q", stderr.String())
			}
		})
	}
}

func TestRunBadListenAddr(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-addr", "127.0.0.1:99999"}, &stdout, &stderr, nil); code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, stderr.String())
	}
}

// TestGracefulShutdownDrainsInFlight boots the real daemon, puts a wave of
// search requests in flight, delivers SIGTERM mid-wave, and requires every
// already-admitted request to complete with 200 — zero dropped requests —
// before the process exits cleanly.
func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	var stdout, stderr bytes.Buffer
	ready := make(chan string, 1)
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"-addr", "127.0.0.1:0"}, &stdout, &stderr, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	base := "http://" + addr

	// Liveness first.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	// 68 evaluations at 10ms each keep every request of the wave in flight
	// for about 0.7s, so the signal lands mid-request.
	slowSearch(t, 10*time.Millisecond)
	const wave = 8
	body := `{"op":{"name":"drain","m":48,"k":32,"l":40},"buffer":4096,"engine":"exhaustive"}`
	var wg sync.WaitGroup
	codes := make([]int, wave)
	errs := make([]error, wave)
	for i := 0; i < wave; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(base+"/v1/search", "application/json", strings.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer func() {
				if cerr := resp.Body.Close(); cerr != nil && errs[i] == nil {
					errs[i] = cerr
				}
			}()
			if _, err := io.ReadAll(resp.Body); err != nil {
				errs[i] = err
				return
			}
			codes[i] = resp.StatusCode
		}(i)
	}
	// Wait until the whole wave is admitted — the in-flight gauge on
	// /metrics reports it — so the signal provably lands mid-request.
	waitDeadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(waitDeadline) {
			t.Fatalf("wave never fully in flight; last metrics:\n%s", scrape(t, base))
		}
		if strings.Contains(scrape(t, base), fmt.Sprintf("http_inflight %d", wave)) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("kill: %v", err)
	}
	wg.Wait()

	for i := 0; i < wave; i++ {
		if errs[i] != nil {
			t.Errorf("request %d dropped during drain: %v", i, errs[i])
		} else if codes[i] != http.StatusOK {
			t.Errorf("request %d status %d during drain", i, codes[i])
		}
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit code = %d, want 0 (stderr: %s)", code, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server never exited after SIGTERM")
	}
	out := stdout.String()
	for _, want := range []string{"listening on", "draining in-flight requests", "drained, exiting"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q:\n%s", want, out)
		}
	}
	// The listener is really gone.
	if _, err := http.Get(fmt.Sprintf("http://%s/healthz", addr)); err == nil {
		t.Error("listener still accepting after shutdown")
	}
}

// TestDrainRejectsNewRequestsWith503 is the regression test for the drain
// race: a request arriving after SIGTERM but before the listener closes must
// get a fast 503 draining envelope with Connection: close — not hang, not a
// connection reset. A long in-flight search pins the grace window open while
// the probe runs; once it finishes the window ends early, well inside the
// grace budget.
func TestDrainRejectsNewRequestsWith503(t *testing.T) {
	var stdout, stderr bytes.Buffer
	ready := make(chan string, 1)
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"-addr", "127.0.0.1:0", "-timeout", "60s", "-drain-grace", "30s"},
			&stdout, &stderr, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	base := "http://" + addr

	// Readiness is up once the listener is announced.
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatalf("readyz: %v", err)
	}
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain = %d, want 200", resp.StatusCode)
	}

	// Pin the grace window open with a search slowed to about 2.5s (127
	// evaluations at 20ms). Its client hangs up later, but the server does
	// not cancel a request whose client hung up, so the walk runs out.
	slowSearch(t, 20*time.Millisecond)
	slowCtx, cancelSlow := context.WithCancel(context.Background())
	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		req, err := http.NewRequestWithContext(slowCtx, http.MethodPost, base+"/v1/search",
			strings.NewReader(`{"op":{"m":224,"k":224,"l":224},"buffer":1048576,"engine":"exhaustive"}`))
		if err != nil {
			t.Error(err)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			if cerr := resp.Body.Close(); cerr != nil {
				t.Error(cerr)
			}
		}
	}()
	waitDeadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(scrape(t, base), "http_inflight 1") {
		if time.Now().After(waitDeadline) {
			t.Fatal("pinning search never became in-flight")
		}
		time.Sleep(2 * time.Millisecond)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("kill: %v", err)
	}
	// The readiness flip is the deterministic signal that the drain began.
	flipDeadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			t.Fatalf("readyz during drain: %v", err)
		}
		code := resp.StatusCode
		if cerr := resp.Body.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(flipDeadline) {
			t.Fatal("readyz never flipped to 503 after SIGTERM")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The race under test: a new request during the grace window.
	resp, err = http.Post(base+"/v1/optimize", "application/json",
		strings.NewReader(`{"op":{"m":8,"k":8,"l":8},"buffer":64}`))
	if err != nil {
		t.Fatalf("request during drain was dropped: %v", err)
	}
	raw, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatalf("read drain response: %v", err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status during drain = %d, want 503 (%s)", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), `"draining"`) {
		t.Fatalf("drain rejection missing draining code: %s", raw)
	}
	if !resp.Close && !strings.EqualFold(resp.Header.Get("Connection"), "close") {
		t.Fatalf("drain rejection did not close the connection (headers %v)", resp.Header)
	}
	// Liveness stays up through the drain.
	if hz, err := http.Get(base + "/healthz"); err != nil || hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz during drain: %v %v", hz, err)
	} else if cerr := hz.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}

	// Release the pin; once the walk finishes, in-flight hits zero, the grace
	// window ends early and the process exits cleanly well before the 30s
	// grace budget.
	cancelSlow()
	<-slowDone
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit code = %d, want 0 (stderr: %s)", code, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server never exited after the drain pin was released")
	}
}

// TestPprofListener boots the daemon with -pprof, verifies the profiling
// endpoints answer on the dedicated listener (including a short CPU
// profile), and — the isolation half of the contract — that the public
// service listener does NOT serve /debug/pprof/.
func TestPprofListener(t *testing.T) {
	var stdout, stderr bytes.Buffer
	ready := make(chan string, 2)
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"-addr", "127.0.0.1:0", "-pprof", "127.0.0.1:0"}, &stdout, &stderr, ready)
	}()
	var addr, paddr string
	for _, dst := range []*string{&addr, &paddr} {
		select {
		case *dst = <-ready:
		case <-time.After(10 * time.Second):
			t.Fatalf("server never became ready (stderr: %s)", stderr.String())
		}
	}

	get := func(url string) int {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		if _, rerr := io.ReadAll(resp.Body); rerr != nil {
			t.Fatalf("GET %s: read: %v", url, rerr)
		}
		if cerr := resp.Body.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		return resp.StatusCode
	}

	// The pprof listener answers the index, cmdline, and a 1-second CPU
	// profile (seconds must be ≥ 1: net/http/pprof treats seconds<=0 as the
	// 30-second default, which would stall the test).
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/profile?seconds=1"} {
		if code := get("http://" + paddr + path); code != http.StatusOK {
			t.Errorf("pprof listener %s = %d, want 200", path, code)
		}
	}
	// Isolation: the public listener serves the API but not pprof.
	if code := get("http://" + addr + "/healthz"); code != http.StatusOK {
		t.Errorf("main listener /healthz = %d, want 200", code)
	}
	if code := get("http://" + addr + "/debug/pprof/"); code == http.StatusOK {
		t.Error("main listener serves /debug/pprof/ — profiling leaked onto the public surface")
	}
	// And the pprof listener does not expose the service API.
	if code := get("http://" + paddr + "/healthz"); code == http.StatusOK {
		t.Error("pprof listener serves /healthz — service leaked onto the profiling surface")
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("kill: %v", err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit code = %d, want 0 (stderr: %s)", code, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server never exited after SIGTERM")
	}
	// The pprof listener is torn down with the daemon.
	if _, err := http.Get("http://" + paddr + "/debug/pprof/"); err == nil {
		t.Error("pprof listener still accepting after shutdown")
	}
	if !strings.Contains(stdout.String(), "pprof on") {
		t.Errorf("stdout missing pprof announcement:\n%s", stdout.String())
	}
}

// scrape fetches the /metrics text exposition.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer func() {
		if cerr := resp.Body.Close(); cerr != nil {
			t.Errorf("close: %v", cerr)
		}
	}()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read metrics: %v", err)
	}
	return string(raw)
}
