package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"fusecu/api"
	"fusecu/internal/cost"
)

func TestRunFlagErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-bogus"}},
		{"positional args", []string{"-backends", "http://x", "extra"}},
		{"missing backends", nil},
		{"blank backends", []string{"-backends", " , "}},
		// The hash ring's flag is gone with the ring: it fails startup
		// loudly instead of being silently accepted.
		{"retired vnodes", []string{"-backends", "http://x", "-vnodes", "64"}},
		{"bad health interval", []string{"-backends", "http://x", "-health-interval", "-1s"}},
		{"bad proxy attempts", []string{"-backends", "http://x", "-proxy-attempts", "0"}},
		{"bad eject threshold", []string{"-backends", "http://x", "-eject-threshold", "-1"}},
		{"bad eject window", []string{"-backends", "http://x", "-eject-window", "0s"}},
		{"negative hedge delay", []string{"-backends", "http://x", "-hedge-after", "-5ms"}},
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
		})
	}
}

// fakeReplica answers probes, version, and proxied API calls with its name.
func fakeReplica(t *testing.T, name string, v api.VersionResponse) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, `{"status":"ready"}`)
	})
	mux.HandleFunc("/v1/version", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(v)
	})
	mux.HandleFunc("/v1/", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(map[string]string{"replica": name})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func fleetTriple() api.VersionResponse {
	return api.VersionResponse{
		APIVersion:         api.Version,
		CostModelVersion:   cost.ModelVersion,
		TableFormatVersion: api.TableFormatVersion,
	}
}

// TestRunRefusesMixedFleet: a fleet disagreeing on the cost-model version
// must be refused before the listener opens, with a nonzero exit.
func TestRunRefusesMixedFleet(t *testing.T) {
	good := fakeReplica(t, "good", fleetTriple())
	drifted := fleetTriple()
	drifted.CostModelVersion = "cm0-legacy"
	bad := fakeReplica(t, "bad", drifted)

	var stdout, stderr bytes.Buffer
	code := run([]string{"-addr", "127.0.0.1:0", "-backends", good.URL + "," + bad.URL},
		&stdout, &stderr, nil)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "version mismatch") {
		t.Fatalf("stderr missing mismatch reason: %q", stderr.String())
	}
	if strings.Contains(stdout.String(), "listening on") {
		t.Fatal("router opened its listener despite a mixed fleet")
	}
}

// TestRunProxiesAndExitsCleanly boots the router over two fake replicas,
// proxies a request through, and shuts down cleanly on SIGTERM.
func TestRunProxiesAndExitsCleanly(t *testing.T) {
	r1 := fakeReplica(t, "r1", fleetTriple())
	r2 := fakeReplica(t, "r2", fleetTriple())

	var stdout, stderr bytes.Buffer
	ready := make(chan string, 1)
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"-addr", "127.0.0.1:0", "-backends", r1.URL + "," + r2.URL},
			&stdout, &stderr, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatalf("router never became ready (stderr: %s)", stderr.String())
	}
	base := "http://" + addr

	resp, err := http.Post(base+"/v1/search", "application/json",
		strings.NewReader(`{"op":{"name":"t","m":16,"k":12,"l":8},"buffer":1024}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), `"replica"`) {
		t.Fatalf("proxied answer %d %s", resp.StatusCode, raw)
	}

	// The router reports the fleet's agreed triple on its own surface.
	vresp, err := http.Get(base + "/v1/version")
	if err != nil {
		t.Fatal(err)
	}
	var v api.VersionResponse
	err = json.NewDecoder(vresp.Body).Decode(&v)
	if cerr := vresp.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if v != fleetTriple() {
		t.Fatalf("router version %+v, want fleet triple", v)
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
		t.Fatal("router never exited after SIGTERM")
	}
	out := stdout.String()
	for _, want := range []string{"agreed on", "listening on", "drained, exiting"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q:\n%s", want, out)
		}
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("listener still accepting after shutdown")
	}
}
