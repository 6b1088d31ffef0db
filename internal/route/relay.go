package route

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"fusecu/internal/h1"
)

const (
	// relayTimeout bounds one exchange when the request's context carries
	// no earlier deadline.
	relayTimeout = 30 * time.Second
	// relayIdlePerHost caps the idle keep-alive connections kept per
	// backend. A connection released above the cap is closed.
	relayIdlePerHost = 64
	// maxKeptRequest caps the capacity of the request buffer a connection
	// keeps between exchanges.
	maxKeptRequest = 64 << 10
)

// aLongTimeAgo is the deadline that makes every pending and future I/O on a
// connection fail at once.
var aLongTimeAgo = time.Unix(1, 0)

// upstream runs one exchange with a replica: the request's method, URI,
// Content-Type and in-memory body go out, and the reply comes back read in
// full. The relay is the router's implementation; tests substitute fakes.
type upstream interface {
	exchange(ctx context.Context, b *Backend, method, uri, contentType string, body []byte) (reply, error)
}

// reply is one upstream reply as the router relays it.
type reply struct {
	status      int
	contentType string        // the first Content-Type value
	retryAfter  string        // the first Retry-After value
	close       bool          // the reply carried Connection: close
	body        *bytes.Buffer // from replyBufs
}

// replyBufs recycles the buffers upstream reply bodies are read into.
var replyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledReply is the largest buffer capacity returned to replyBufs, so
// one outsized reply does not pin its buffer for the process lifetime.
const maxPooledReply = 64 << 10

func releaseReply(buf *bytes.Buffer) {
	if buf != nil && buf.Cap() <= maxPooledReply {
		buf.Reset()
		replyBufs.Put(buf)
	}
}

// relay is the router's HTTP/1.1 client. Each exchange, proxy attempt or
// health probe, runs on the calling goroutine over a pooled keep-alive
// connection: the request line, Host, Content-Type, Content-Length and the
// body leave in one write, and the reply is read whole into a pooled
// buffer. h1.Scanner reads a reply head of the fleet's shape in place; any
// other head goes through http.ReadResponse. So an exchange builds no
// http.Request or http.Response and costs no goroutine handoff, where
// http.Transport parks every connection's reads and writes on two
// goroutines of its own. It speaks plain HTTP/1.1 only, without
// pipelining, proxies, TLS or compression: what the router needs to talk
// to fusecu-serve.
//
// Cancellation is a deadline: when the request's context can end,
// context.AfterFunc moves the connection's deadline into the past when it
// does, which fails the blocked read or write, and the error then wraps
// the context's error.
type relay struct {
	dialer net.Dialer

	mu   sync.Mutex
	idle map[string][]*relayConn // by dial address, most recently used last
}

// relayConn is one keep-alive connection with its own buffers.
type relayConn struct {
	addr  string // pool key: the backend's dial address
	conn  net.Conn
	br    *bufio.Reader
	out   []byte // the request as written
	heads h1.Scanner
}

func newRelay() *relay {
	return &relay{idle: map[string][]*relayConn{}}
}

// errStale marks a failure on a reused connection before any byte of the
// reply arrived: the backend had closed the connection while it sat idle.
var errStale = errors.New("route: stale keep-alive connection")

// exchange runs one exchange with b. A reused connection that turns out
// stale is retried once on a fresh dial, invisibly to the caller. That is
// safe because every request the router sends is a pure query.
func (rl *relay) exchange(ctx context.Context, b *Backend, method, uri, contentType string, body []byte) (reply, error) {
	if pc := rl.pop(b.addr); pc != nil {
		res, err := rl.roundTrip(ctx, pc, true, b, method, uri, contentType, body)
		if !errors.Is(err, errStale) {
			return res, err
		}
	}
	conn, err := rl.dialer.DialContext(ctx, "tcp", b.addr)
	if err != nil {
		return reply{}, wrapCtx(ctx, err)
	}
	pc := &relayConn{addr: b.addr, conn: conn, br: bufio.NewReader(conn)}
	return rl.roundTrip(ctx, pc, false, b, method, uri, contentType, body)
}

// pop takes the most recently released idle connection to addr, if any.
func (rl *relay) pop(addr string) *relayConn {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	stack := rl.idle[addr]
	if len(stack) == 0 {
		return nil
	}
	pc := stack[len(stack)-1]
	stack[len(stack)-1] = nil
	rl.idle[addr] = stack[:len(stack)-1]
	return pc
}

// put returns a connection to its backend's pool, or closes it when the
// pool is full.
func (rl *relay) put(pc *relayConn) {
	rl.mu.Lock()
	if stack := rl.idle[pc.addr]; len(stack) < relayIdlePerHost {
		rl.idle[pc.addr] = append(stack, pc)
		rl.mu.Unlock()
		return
	}
	rl.mu.Unlock()
	_ = pc.conn.Close()
}

// roundTrip runs the exchange on pc. The connection returns to the pool
// only when the reply was read whole, did not ask to close, left no byte
// beyond it buffered, and the context never fired; otherwise it is closed.
func (rl *relay) roundTrip(ctx context.Context, pc *relayConn, reused bool, b *Backend, method, uri, contentType string, body []byte) (reply, error) {
	deadline := time.Now().Add(relayTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	if err := pc.conn.SetDeadline(deadline); err != nil {
		_ = pc.conn.Close()
		return reply{}, wrapCtx(ctx, err)
	}
	// Registered after the deadline is set, so a context that ends from
	// here on always wins over it. A context that cannot end, such as the
	// one every unhedged request carries, needs none.
	var stop func() bool
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, func() { _ = pc.conn.SetDeadline(aLongTimeAgo) })
	}
	fail := func(err error, beforeReply bool) (reply, error) {
		if stop != nil {
			stop()
		}
		_ = pc.conn.Close()
		var ne net.Error
		if reused && beforeReply && ctx.Err() == nil && !(errors.As(err, &ne) && ne.Timeout()) {
			return reply{}, fmt.Errorf("%w: %w", errStale, err)
		}
		return reply{}, wrapCtx(ctx, err)
	}
	if err := pc.send(b, method, uri, contentType, body); err != nil {
		return fail(err, true)
	}
	if _, err := pc.br.Peek(1); err != nil {
		return fail(err, true)
	}
	res, err := pc.receive(method)
	if err != nil {
		return fail(err, false)
	}
	if (stop == nil || stop()) && !res.close && pc.br.Buffered() == 0 {
		rl.put(pc)
	} else {
		_ = pc.conn.Close()
	}
	return res, nil
}

// send writes the request in one write. The router's requests carry their
// bodies in memory, so the length is always known.
func (pc *relayConn) send(b *Backend, method, uri, contentType string, body []byte) error {
	out := append(pc.out[:0], method...)
	out = append(out, ' ')
	out = append(out, b.path...)
	out = append(out, uri...)
	out = append(out, " HTTP/1.1\r\nHost: "...)
	out = append(out, b.host...)
	out = append(out, "\r\n"...)
	if contentType != "" {
		out = append(out, "Content-Type: "...)
		out = append(out, contentType...)
		out = append(out, "\r\n"...)
	}
	if len(body) > 0 {
		out = append(out, "Content-Length: "...)
		out = strconv.AppendInt(out, int64(len(body)), 10)
		out = append(out, "\r\n"...)
	}
	out = append(out, "\r\n"...)
	out = append(out, body...)
	_, err := pc.conn.Write(out)
	if cap(out) <= maxKeptRequest {
		pc.out = out
	} else {
		pc.out = nil
	}
	return err
}

// receive reads the reply to method whole: a head of the fleet's shape in
// place, any other with http.ReadResponse.
func (pc *relayConn) receive(method string) (reply, error) {
	buf := replyBufs.Get().(*bytes.Buffer)
	if method == http.MethodGet || method == http.MethodPost {
		if h, ok := pc.heads.ScanReply(pc.br); ok {
			if err := readBody(buf, pc.br, h.ContentLength); err != nil {
				releaseReply(buf)
				return reply{}, err
			}
			return reply{status: h.Status, contentType: h.ContentType, retryAfter: h.RetryAfter, close: h.Close, body: buf}, nil
		}
	}
	resp, err := http.ReadResponse(pc.br, &http.Request{Method: method})
	if err != nil {
		releaseReply(buf)
		return reply{}, err
	}
	if resp.StatusCode < http.StatusOK {
		// The router never asks for a 1xx reply and cannot relay one.
		releaseReply(buf)
		return reply{}, fmt.Errorf("route: unexpected informational reply %q", resp.Status)
	}
	_, err = buf.ReadFrom(resp.Body)
	_ = resp.Body.Close() // read to its end or failed: the connection decides
	if err != nil {
		releaseReply(buf)
		return reply{}, err
	}
	return reply{
		status:      resp.StatusCode,
		contentType: resp.Header.Get("Content-Type"),
		retryAfter:  resp.Header.Get("Retry-After"),
		close:       resp.Close,
		body:        buf,
	}, nil
}

// readBody appends the next n bytes of r to buf, growing buf at most
// 64 KiB ahead of the bytes that arrived, so a reply's declared length
// alone cannot claim memory.
func readBody(buf *bytes.Buffer, r io.Reader, n int64) error {
	for n > 0 {
		chunk := min(n, maxPooledReply)
		buf.Grow(int(chunk))
		p := buf.AvailableBuffer()[:chunk]
		if _, err := io.ReadFull(r, p); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		_, _ = buf.Write(p) // p is buf's own spare capacity: no copy grows it
		n -= chunk
	}
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
