package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestDeadlineCtxErrReadsTheClock(t *testing.T) {
	d := time.Now().Add(30 * time.Millisecond)
	ctx := withDeadline(context.Background(), d)
	defer ctx.release()
	if got, ok := ctx.Deadline(); !ok || !got.Equal(d) {
		t.Fatalf("Deadline() = %v, %v; want %v, true", got, ok, d)
	}
	if err := ctx.Err(); err != nil {
		t.Fatalf("Err() before the deadline = %v", err)
	}
	time.Sleep(time.Until(d))
	err := ctx.Err()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err() after the deadline = %v, want DeadlineExceeded", err)
	}
	var timeout interface{ Timeout() bool }
	if !errors.As(err, &timeout) || !timeout.Timeout() {
		t.Fatalf("Err() = %v, not a net timeout as DeadlineExceeded is", err)
	}
	if ctx.timer != nil {
		t.Fatal("Err armed a timer")
	}
}

func TestDeadlineCtxKeepsParentDeadlineWhenEarlier(t *testing.T) {
	parent, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	pd, _ := parent.Deadline()
	ctx := withDeadline(parent, time.Now().Add(time.Hour))
	defer ctx.release()
	if got, _ := ctx.Deadline(); !got.Equal(pd) {
		t.Fatalf("Deadline() = %v, want the parent's %v", got, pd)
	}
}

func TestDeadlineCtxParentCancelIsCanceled(t *testing.T) {
	parent, cancel := context.WithCancel(context.Background())
	ctx := withDeadline(parent, time.Now().Add(time.Hour))
	defer ctx.release()
	cancel()
	if err := ctx.Err(); err != context.Canceled {
		t.Fatalf("Err() after the parent's cancel = %v, want Canceled", err)
	}
	// The first error is kept, as a context's must be.
	if err := ctx.Err(); err != context.Canceled {
		t.Fatalf("second Err() = %v, want Canceled", err)
	}
}

func TestDeadlineCtxDoneClosesAtDeadline(t *testing.T) {
	ctx := withDeadline(context.Background(), time.Now().Add(20*time.Millisecond))
	defer ctx.release()
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("Done never closed at the deadline")
	}
	if err := ctx.Err(); err != context.DeadlineExceeded {
		t.Fatalf("Err() after Done = %v, want DeadlineExceeded", err)
	}
}

func TestDeadlineCtxDoneClosesOnParentCancel(t *testing.T) {
	parent, cancel := context.WithCancel(context.Background())
	ctx := withDeadline(parent, time.Now().Add(time.Hour))
	defer ctx.release()
	done := ctx.Done()
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Done never closed on the parent's cancel")
	}
	if err := ctx.Err(); err != context.Canceled {
		t.Fatalf("Err() after Done = %v, want Canceled", err)
	}
}

func TestDeadlineCtxDoneAfterDeadlineIsClosed(t *testing.T) {
	ctx := withDeadline(context.Background(), time.Now().Add(-time.Second))
	defer ctx.release()
	select {
	case <-ctx.Done():
	default:
		t.Fatal("Done of an expired context is open")
	}
	if ctx.timer != nil {
		t.Fatal("Done of an expired context armed a timer")
	}
}

func TestDeadlineCtxReleaseStopsTimer(t *testing.T) {
	parent, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := withDeadline(parent, time.Now().Add(time.Hour))
	done := ctx.Done()
	if ctx.timer == nil {
		t.Fatal("Done armed no timer")
	}
	ctx.release()
	if ctx.timer.Stop() {
		t.Fatal("release left the deadline timer armed")
	}
	if ctx.stopParent() {
		t.Fatal("release left the parent watch registered")
	}
	select {
	case <-done:
	default:
		t.Fatal("release left Done open")
	}
	if err := ctx.Err(); err != context.Canceled {
		t.Fatalf("Err() after release = %v, want Canceled", err)
	}
}

// TestDeadlineCtxConcurrentUse reads Err and Done from several goroutines
// while the deadline passes — half wait on Done at once, half poll Err
// first — then releases: every reader sees the channel close and the one
// kept error.
func TestDeadlineCtxConcurrentUse(t *testing.T) {
	ctx := withDeadline(context.Background(), time.Now().Add(5*time.Millisecond))
	errs := make(chan error, 8)
	for i := 0; i < cap(errs); i++ {
		go func(poll bool) {
			for poll && ctx.Err() == nil {
				time.Sleep(100 * time.Microsecond)
			}
			<-ctx.Done()
			errs <- ctx.Err()
		}(i%2 == 0)
	}
	for i := 0; i < cap(errs); i++ {
		if err := <-errs; err != context.DeadlineExceeded {
			t.Errorf("reader %d saw %v, want DeadlineExceeded", i, err)
		}
	}
	ctx.release()
	if err := ctx.Err(); err != context.DeadlineExceeded {
		t.Fatalf("Err() after release = %v, want the kept DeadlineExceeded", err)
	}
}

// doneCounter is a request context that counts calls to Done: deriving a
// context.WithTimeout from it, or selecting on a derived context's Done,
// calls it.
type doneCounter struct {
	context.Context
	calls atomic.Int64
}

func (c *doneCounter) Done() <-chan struct{} {
	c.calls.Add(1)
	return c.Context.Done()
}

// TestNoEndpointArmsATimer serves every POST endpoint and every search
// engine through Server.Handler with a request context that counts calls
// to Done: none may call it, so no request arms a runtime timer or a
// parent watch.
func TestNoEndpointArmsATimer(t *testing.T) {
	h := New(Config{}).Handler()
	cases := []struct{ name, path, body string }{
		{"optimize", "/v1/optimize", `{"op":{"name":"qk","m":512,"k":64,"l":512},"buffer":65536}`},
		{"plan", "/v1/plan", `{"name":"attn","ops":[{"m":512,"k":64,"l":512},{"m":512,"k":512,"l":64}],"buffer":65536}`},
		{"evaluate", "/v1/evaluate", `{"model":"BERT","platforms":["FuseCU","TPUv4i"]}`},
		{"search-auto", "/v1/search", searchBody(refOp, 4096, "auto")},
		{"search-exhaustive", "/v1/search", searchBody(refOp, 4096, "exhaustive")},
		{"search-coarse", "/v1/search", searchBody(refOp, 4096, "coarse")},
		{"search-genetic", "/v1/search", searchBody(refOp, 4096, "genetic")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := &doneCounter{Context: context.Background()}
			req := httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)).WithContext(ctx)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
			if n := ctx.calls.Load(); n != 0 {
				t.Fatalf("the request context's Done was called %d times", n)
			}
		})
	}
}

// TestHugeTimeoutIsCapped: a timeout_ms whose Duration overflows int64
// nanoseconds (above about 9.22e12 ms) is capped at DefaultTimeout like any
// other large value, not read as an already-lapsed deadline.
func TestHugeTimeoutIsCapped(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const huge = `,"timeout_ms":9300000000000}`
	code, raw := post(t, ts, "/v1/evaluate", `{"model":"BERT","platforms":["FuseCU"]`+huge, nil)
	if code != http.StatusOK {
		t.Fatalf("evaluate: status %d (%s)", code, raw)
	}
	var resp searchResponse
	code, raw = post(t, ts, "/v1/search", strings.TrimSuffix(searchBody(refOp, 4096, "genetic"), "}")+huge, &resp)
	if code != http.StatusOK {
		t.Fatalf("genetic search: status %d (%s)", code, raw)
	}
	if resp.Degraded || resp.Method != "genetic" {
		t.Fatalf("genetic search: method %q degraded %v (%q), want an undegraded genetic answer",
			resp.Method, resp.Degraded, resp.DegradedReason)
	}
}
