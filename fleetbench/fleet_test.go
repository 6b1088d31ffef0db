package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The fleet tests start this test binary in place of fusecu-serve and
// fusecu-route. FLEETBENCH_FAKE selects its behaviour: "serve" listens on
// -addr, answers /readyz and never answers /v1; "router-fails" does the
// same as a replica but exits at once when started as the router.
func TestMain(m *testing.M) {
	mode := os.Getenv("FLEETBENCH_FAKE")
	if mode == "" {
		os.Exit(m.Run())
	}
	args := strings.Join(os.Args[1:], " ")
	if mode == "router-fails" && strings.Contains(args, "-backends") {
		os.Exit(3)
	}
	addr := "127.0.0.1:0"
	for i, a := range os.Args {
		if a == "-addr" && i+1 < len(os.Args) {
			addr = os.Args[i+1]
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("fake: listening on %s\n", ln.Addr())
	_ = http.Serve(ln, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			return
		}
		<-r.Context().Done() // a request in flight when the run ends
	}))
	os.Exit(0)
}

// fakeBin returns a -bin directory whose fusecu-serve and fusecu-route are
// this test binary.
func fakeBin(t *testing.T, mode string) string {
	t.Helper()
	t.Setenv("FLEETBENCH_FAKE", mode)
	dir := t.TempDir()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fusecu-serve", "fusecu-route"} {
		if err := os.Symlink(exe, filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// children lists the live processes whose parent is this process.
func children(t *testing.T) []int {
	t.Helper()
	stats, err := filepath.Glob("/proc/[0-9]*/stat")
	if err != nil {
		t.Fatal(err)
	}
	var out []int
	for _, path := range stats {
		b, err := os.ReadFile(path)
		if err != nil {
			continue // exited while listing
		}
		s := string(b)
		f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
		if len(f) > 1 && f[1] == strconv.Itoa(os.Getpid()) {
			pid, _ := strconv.Atoi(filepath.Base(filepath.Dir(path)))
			out = append(out, pid)
		}
	}
	return out
}

// runBench runs the benchmark's entry point against fake binaries and
// checks that it fails without a result line and leaves no child behind.
func runBench(t *testing.T, ctx context.Context, mode string) {
	t.Helper()
	bin := fakeBin(t, mode)
	var stdout, stderr bytes.Buffer
	code := run(ctx, []string{"-bin", bin, "-out", t.TempDir(),
		"--workload", "search-hot", "--seed", "1", "--seconds", "1", "--trace", "0"}, &stdout, &stderr)
	if code == 0 {
		t.Errorf("run succeeded against a broken fleet")
	}
	if strings.Contains(stdout.String(), `"correct"`) {
		t.Errorf("a failed run printed a result: %s", stdout.String())
	}
	if kids := children(t); len(kids) != 0 {
		t.Errorf("child processes %v outlived the run (stderr: %s)", kids, stderr.String())
	}
}

func TestFailedStartLeavesNoChild(t *testing.T) {
	runBench(t, context.Background(), "router-fails")
}

func TestInterruptedRunLeavesNoChild(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		// The fakes never answer /v1, so the run is stuck in its warm-up
		// pass with the whole fleet up when the interrupt arrives.
		deadline := time.Now().Add(30 * time.Second)
		for len(children(t)) < replicaCount+1 && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		cancel()
	}()
	runBench(t, ctx, "serve")
}

func TestStartFleetStopsEveryProcess(t *testing.T) {
	bin := fakeBin(t, "serve")
	f, err := startFleet(context.Background(), binaries{
		serve: filepath.Join(bin, "fusecu-serve"), route: filepath.Join(bin, "fusecu-route")})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(children(t)); n != replicaCount+1 {
		t.Errorf("%d children running, want %d", n, replicaCount+1)
	}
	if _, err := f.cpuTime(); err != nil {
		t.Error(err)
	}
	if rss, err := f.peakRSS(); err != nil || rss <= 0 {
		t.Errorf("peak RSS %d, %v", rss, err)
	}
	f.stop()
	if kids := children(t); len(kids) != 0 {
		t.Errorf("children %v survived stop", kids)
	}
}
