package route

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

const (
	// relayTimeout bounds one exchange when the request's context carries
	// no earlier deadline.
	relayTimeout = 30 * time.Second
	// relayIdlePerHost caps the idle keep-alive connections kept per
	// backend. A connection released above the cap is closed.
	relayIdlePerHost = 64
)

// aLongTimeAgo is the deadline that makes every pending and future I/O on a
// connection fail at once.
var aLongTimeAgo = time.Unix(1, 0)

// relay is the router's HTTP/1.1 client: an http.RoundTripper that runs
// each exchange on the calling goroutine. It writes the request on a pooled
// keep-alive connection and parses the reply with http.ReadResponse, so an
// exchange costs no goroutine handoff, where http.Transport parks every
// connection's reads and writes on two goroutines of its own. It speaks
// plain HTTP/1.1 only, without pipelining, proxies, TLS or compression:
// what the router needs to talk to fusecu-serve.
//
// Cancellation is a deadline: context.AfterFunc moves the connection's
// deadline into the past when the request's context ends, which fails the
// blocked read or write, and the error then wraps the context's error.
type relay struct {
	dialer net.Dialer

	mu   sync.Mutex
	idle map[string][]*relayConn // by URL host, most recently used last
}

// relayConn is one keep-alive connection with its own buffers.
type relayConn struct {
	host string // pool key: the request URL's host
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

func newRelay() *relay {
	return &relay{idle: map[string][]*relayConn{}}
}

// errStale marks a failure on a reused connection before any byte of the
// reply arrived: the backend had closed the connection while it sat idle.
var errStale = errors.New("route: stale keep-alive connection")

// RoundTrip runs one exchange. A reused connection that turns out stale is
// retried once on a fresh dial, invisibly to the caller. That is safe
// because every request the router sends is a pure query.
func (rl *relay) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Scheme != "http" {
		closeBody(req.Body)
		return nil, fmt.Errorf("route: relay speaks plain http, not %q", req.URL.Scheme)
	}
	body := req.Body
	if pc := rl.pop(req.URL.Host); pc != nil {
		resp, err := rl.exchange(req, body, pc, true)
		if !errors.Is(err, errStale) {
			return resp, err
		}
		if body != nil && body != http.NoBody {
			if req.GetBody == nil {
				return nil, err
			}
			if body, err = req.GetBody(); err != nil {
				return nil, err
			}
		}
	}
	port := req.URL.Port()
	if port == "" {
		port = "80"
	}
	conn, err := rl.dialer.DialContext(req.Context(), "tcp", net.JoinHostPort(req.URL.Hostname(), port))
	if err != nil {
		closeBody(body)
		return nil, wrapCtx(req.Context(), err)
	}
	pc := &relayConn{host: req.URL.Host, conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
	return rl.exchange(req, body, pc, false)
}

// pop takes the most recently released idle connection to host, if any.
func (rl *relay) pop(host string) *relayConn {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	stack := rl.idle[host]
	if len(stack) == 0 {
		return nil
	}
	pc := stack[len(stack)-1]
	stack[len(stack)-1] = nil
	rl.idle[host] = stack[:len(stack)-1]
	return pc
}

// put returns a connection to its host's pool, or closes it when the pool
// is full.
func (rl *relay) put(pc *relayConn) {
	rl.mu.Lock()
	if stack := rl.idle[pc.host]; len(stack) < relayIdlePerHost {
		rl.idle[pc.host] = append(stack, pc)
		rl.mu.Unlock()
		return
	}
	rl.mu.Unlock()
	_ = pc.conn.Close()
}

// exchange writes req with body on pc and reads the reply's status line
// and headers. The reply's body is left on the connection behind a
// relayBody, which pools or closes the connection when the caller closes
// it.
func (rl *relay) exchange(req *http.Request, body io.ReadCloser, pc *relayConn, reused bool) (*http.Response, error) {
	ctx := req.Context()
	deadline := time.Now().Add(relayTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	if err := pc.conn.SetDeadline(deadline); err != nil {
		closeBody(body)
		_ = pc.conn.Close()
		return nil, wrapCtx(ctx, err)
	}
	// Registered after the deadline is set, so a context that ends from
	// here on always wins over it.
	stop := context.AfterFunc(ctx, func() { _ = pc.conn.SetDeadline(aLongTimeAgo) })
	fail := func(err error, beforeReply bool) (*http.Response, error) {
		stop()
		_ = pc.conn.Close()
		var ne net.Error
		if reused && beforeReply && ctx.Err() == nil && !(errors.As(err, &ne) && ne.Timeout()) {
			return nil, fmt.Errorf("%w: %w", errStale, err)
		}
		return nil, wrapCtx(ctx, err)
	}
	if err := writeRequest(pc.bw, req, body); err != nil {
		return fail(err, true)
	}
	if _, err := pc.br.Peek(1); err != nil {
		return fail(err, true)
	}
	resp, err := http.ReadResponse(pc.br, req)
	if err != nil {
		return fail(err, false)
	}
	if resp.StatusCode < http.StatusOK {
		// The router never asks for a 1xx reply and cannot relay one.
		return fail(fmt.Errorf("route: unexpected informational reply %q", resp.Status), false)
	}
	resp.Body = &relayBody{rl: rl, pc: pc, rc: resp.Body, ctx: ctx, stop: stop, keep: !resp.Close}
	return resp, nil
}

// writeRequest writes req with body in HTTP/1.1 wire format, flushes it,
// and closes body. The router's requests carry their bodies in memory, so a
// body must come with its length.
func writeRequest(w *bufio.Writer, req *http.Request, body io.ReadCloser) error {
	n := req.ContentLength
	if body == nil || body == http.NoBody {
		n = 0
	} else {
		defer body.Close()
		if n <= 0 {
			return errors.New("route: relay needs a request body of known length")
		}
	}
	_, _ = w.WriteString(req.Method)
	_ = w.WriteByte(' ')
	_, _ = w.WriteString(req.URL.RequestURI())
	_, _ = w.WriteString(" HTTP/1.1\r\nHost: ")
	_, _ = w.WriteString(req.URL.Host)
	_, _ = w.WriteString("\r\n")
	if err := req.Header.Write(w); err != nil {
		return err
	}
	if n > 0 {
		_, _ = w.WriteString("Content-Length: ")
		_, _ = w.WriteString(strconv.FormatInt(n, 10))
		_, _ = w.WriteString("\r\n\r\n")
		if _, err := io.CopyN(w, body, n); err != nil {
			return err
		}
	} else {
		_, _ = w.WriteString("\r\n")
	}
	return w.Flush()
}

func closeBody(body io.ReadCloser) {
	if body != nil {
		_ = body.Close()
	}
}

// relayBody is a reply's body. Closing it returns the connection to the
// pool only when the body was read to EOF, the reply allowed keep-alive, no
// byte beyond the reply is buffered, and the context never fired;
// otherwise the connection is closed.
type relayBody struct {
	rl   *relay
	pc   *relayConn
	rc   io.ReadCloser
	ctx  context.Context
	stop func() bool
	keep bool
	eof  bool
}

func (b *relayBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	switch {
	case err == io.EOF:
		b.eof = true
	case err != nil:
		err = wrapCtx(b.ctx, err)
	}
	return n, err
}

func (b *relayBody) Close() error {
	pc := b.pc
	if pc == nil {
		return nil
	}
	b.pc = nil
	if b.stop() && b.eof && b.keep && pc.br.Buffered() == 0 {
		if err := b.rc.Close(); err != nil {
			_ = pc.conn.Close()
			return err
		}
		b.rl.put(pc)
		return nil
	}
	// Close the connection first, so closing the body does not drain it.
	_ = pc.conn.Close()
	_ = b.rc.Close()
	return nil
}

// wrapCtx attributes an I/O failure to the request's context once the
// context has ended or its deadline has passed, so callers can tell their
// own cancellation from a backend fault with errors.Is.
func wrapCtx(ctx context.Context, err error) error {
	cerr := ctx.Err()
	if d, ok := ctx.Deadline(); cerr == nil && ok && !time.Now().Before(d) {
		cerr = context.DeadlineExceeded
	}
	if cerr == nil || errors.Is(err, cerr) {
		return err
	}
	return fmt.Errorf("%w (%w)", cerr, err)
}
