package route

import (
	"context"
	"fmt"
	"net/http"
	"time"
)

// raceHedge runs a request's opening attempt with hedging: the primary
// launches immediately and, if it has not produced a response within
// HedgeAfter, a hedge fires to the next admissible candidate. The first
// response wins — any status, so a fast drain-503 can still be failed over
// by the caller — and the loser is canceled and waited for. A transport error
// or retryable 5xx keeps the race alive while an attempt is still in
// flight; once nothing is pending the last failure is handed back for the
// outer failover loop to account and act on.
//
// Each attempt runs under its own cancelable child of the inbound request
// context, released when the race returns (every attempt has read its
// reply in full by then), and reports through a buffered single-send
// channel, so losing goroutines never block and always exit once canceled.
func (r *Router) raceHedge(req *http.Request, it *attemptIter, primary *Backend, primaryProbe bool, ct, uri string, body []byte) (upstreamResult, int) {
	resc := make(chan upstreamResult, 2)
	launch := func(b *Backend, probe bool) context.CancelFunc {
		actx, cancel := context.WithCancel(req.Context())
		go func() { resc <- r.attemptUpstream(actx, b, probe, req.Method, uri, ct, body) }()
		return cancel
	}
	cancels := map[*Backend]context.CancelFunc{primary: launch(primary, primaryProbe)}
	defer func() {
		for _, cancel := range cancels {
			cancel()
		}
	}()
	attempts, pending := 1, 1

	timer := time.NewTimer(r.cfg.HedgeAfter)
	defer timer.Stop()
	timerC := timer.C

	var last upstreamResult
	for {
		select {
		case res := <-resc:
			pending--
			if res.err == nil && !retryableStatus(res.status) {
				// First good response wins: cancel the loser, then wait for
				// it (its exchange fails promptly on cancel) so no goroutine
				// or upstream connection is left behind.
				for b, cancel := range cancels {
					if b != res.b {
						cancel()
					}
				}
				for ; pending > 0; pending-- {
					loser := <-resc
					if loser.probe {
						loser.b.ej.cancelProbe()
					}
					discard(loser)
				}
				if res.b != primary {
					r.reg.Counter("route_hedge_wins_total").Inc()
				}
				return res, attempts
			}
			last = res
			if pending == 0 {
				// Nothing left in flight: hand the failure (or end-of-line
				// 5xx, body intact for pass-through) to the outer loop,
				// which accounts for it. In particular a primary that fails
				// before the hedge timer does not wait the timer out — the
				// outer loop fails over immediately.
				return last, attempts
			}
			// This attempt lost but its peer is still racing: account the
			// failure here and keep waiting. If the inbound client is gone
			// the peer is about to fail the same way — skip the breaker,
			// just release any probe slot.
			if req.Context().Err() != nil {
				if res.probe {
					res.b.ej.cancelProbe()
				}
				discard(res)
				continue
			}
			if res.err != nil {
				r.reg.Counter("route_upstream_errors_total").Inc()
				r.noteFailure(res.b, fmt.Sprintf("transport: %v", res.err))
			} else {
				r.reg.Counter("route_retryable_status_total").Inc()
				r.noteFailure(res.b, fmt.Sprintf("status %d", res.status))
			}
			discard(res)
		case <-timerC:
			timerC = nil
			hb, hprobe := it.next()
			if hb == nil {
				continue
			}
			r.reg.Counter("route_hedges_total").Inc()
			cancels[hb] = launch(hb, hprobe)
			attempts++
			pending++
		}
	}
}
