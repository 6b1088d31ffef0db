// Package h1 is the HTTP/1.1 server of fusecu-serve and fusecu-route. It
// runs each keep-alive connection on one goroutine and serves that
// connection's requests there in turn: http.ReadRequest parses a request,
// the handler writes its reply into a buffer, and the status line, the
// headers, Date, Content-Length and the body leave in one write. It starts
// no goroutine, context or timer per request, where net/http.Server starts
// a background reader after every request body, aborts it after every
// reply, and derives a cancelable context for every request.
//
// It keeps net/http.Server's request checks — the 1 MiB + 4 KiB limit on a
// request head (431), a Host on HTTP/1.1 that holds only valid bytes, valid
// header names and values, 417 for an Expect other than 100-continue, 505
// for a protocol other than HTTP/1.x, and draining at most 256 KiB of
// unread request body before a connection serves its next request — and
// its reply headers and keep-alive decisions. It gives up:
//
//   - streaming: a reply is buffered whole and always carries its
//     Content-Length, never chunked; the writer has no Flush or Hijack, and
//     a Transfer-Encoding set by a handler is dropped;
//   - cancellation: a request's context is never canceled, so a client
//     that hangs up mid-request does not stop its handler;
//   - informational replies: WriteHeader with a 1xx status other than 101
//     sends nothing (a 100 Continue is still sent for Expect:
//     100-continue);
//   - what net/http.Server offers beyond this repository's use: timeouts,
//     TLS, HTTP/2, the connection-state hook and the OPTIONS * reply.
//
// http.ReadRequest drops the Host header, so a request whose Host header
// is empty counts as missing one, and the Host header of an absolute-form
// request ("GET http://host/path") is neither required nor checked.
package h1

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// headLimit bounds the bytes read for one request head:
	// net/http.Server's default MaxHeaderBytes plus its 4 KiB of slack.
	headLimit = http.DefaultMaxHeaderBytes + 4096
	// maxDrain is the most unread request body the server reads past after
	// a handler returns so that the connection can serve another request.
	maxDrain = 256 << 10
	// maxKept caps the capacity of the reply buffers a connection keeps
	// between requests, so one outsized reply does not pin its memory.
	maxKept = 64 << 10
	// newConnGrace is how long Shutdown waits for a new connection's first
	// request head before treating the connection as idle.
	newConnGrace = 5 * time.Second
	// rstAvoidanceDelay is how long a connection that stops reading a
	// client's unread bytes waits between half-closing and closing, so the
	// client reads the reply before the reset its unread bytes cause.
	rstAvoidanceDelay = 500 * time.Millisecond
)

// Connection states. Shutdown closes idle connections, and new ones that
// sent no complete request head within newConnGrace, by moving them to
// stateClosed; a connection moves to stateActive once it has read a request
// head, and back to stateIdle after replying.
const (
	stateNew int32 = iota
	stateActive
	stateIdle
	stateClosed
)

// Server serves HTTP/1.1 with Handler. Its zero value, with Handler set, is
// ready to use; like net/http.Server it may not be reused after Shutdown or
// Close.
type Server struct {
	// Handler answers every request.
	Handler http.Handler

	mu        sync.Mutex
	closed    atomic.Bool // set under mu by Shutdown and Close
	listeners map[net.Listener]struct{}
	conns     map[*conn]struct{}
	wg        sync.WaitGroup // one count per connection goroutine
}

// Serve accepts connections on ln and serves each on a goroutine of its
// own until Shutdown or Close, when it returns http.ErrServerClosed. It
// closes ln before returning.
func (s *Server) Serve(ln net.Listener) error {
	defer ln.Close()
	if !s.trackListener(ln) {
		return http.ErrServerClosed
	}
	defer func() {
		s.mu.Lock()
		delete(s.listeners, ln)
		s.mu.Unlock()
	}()
	var delay time.Duration // backoff after a temporary accept error
	for {
		rwc, err := ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return http.ErrServerClosed
			}
			// Out of file descriptors and the like: wait and retry, as
			// net/http.Server does.
			if ne, ok := err.(net.Error); ok && ne.Temporary() {
				delay = min(max(2*delay, 5*time.Millisecond), time.Second)
				log.Printf("h1: accept error: %v; retrying in %v", err, delay)
				time.Sleep(delay)
				continue
			}
			return err
		}
		delay = 0
		c := s.newConn(rwc)
		if c == nil {
			_ = rwc.Close()
			return http.ErrServerClosed
		}
		go c.serve()
	}
}

func (s *Server) trackListener(ln net.Listener) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return false
	}
	if s.listeners == nil {
		s.listeners = map[net.Listener]struct{}{}
	}
	s.listeners[ln] = struct{}{}
	return true
}

// newConn registers rwc and counts its goroutine, or reports nil once the
// server is closed. Registering under mu orders every wg.Add before the
// wg.Wait of a Shutdown or Close that set closed.
func (s *Server) newConn(rwc net.Conn) *conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return nil
	}
	if s.conns == nil {
		s.conns = map[*conn]struct{}{}
	}
	c := &conn{s: s, rwc: rwc, born: time.Now().UnixNano()}
	s.conns[c] = struct{}{}
	s.wg.Add(1)
	return c
}

// Shutdown closes the listeners, then closes each connection once it is
// idle, and returns when every connection goroutine has exited, or with
// ctx's error when ctx ends first. A connection serving a request finishes
// it, replying with Connection: close.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.closeListeners()
	poll := time.Millisecond
	timer := time.NewTimer(poll)
	defer timer.Stop()
	for !s.closeIdle() {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-timer.C:
			poll = min(2*poll, 500*time.Millisecond)
			timer.Reset(poll)
		}
	}
	s.wg.Wait()
	return err
}

// Close closes the listeners and every connection at once, then waits for
// the connection goroutines to exit: a handler still running finishes, and
// its reply fails on the closed connection.
func (s *Server) Close() error {
	err := s.closeListeners()
	s.mu.Lock()
	for c := range s.conns {
		c.state.Store(stateClosed)
		_ = c.rwc.Close()
		delete(s.conns, c)
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) closeListeners() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed.Store(true)
	var err error
	for ln := range s.listeners {
		if cerr := ln.Close(); cerr != nil && err == nil {
			err = cerr
		}
		delete(s.listeners, ln)
	}
	return err
}

// closeIdle closes the idle connections and reports whether none is left.
func (s *Server) closeIdle() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	stale := time.Now().Add(-newConnGrace).UnixNano()
	for c := range s.conns {
		if c.state.CompareAndSwap(stateIdle, stateClosed) ||
			(c.born < stale && c.state.CompareAndSwap(stateNew, stateClosed)) {
			_ = c.rwc.Close()
			delete(s.conns, c)
		}
	}
	return len(s.conns) == 0
}

// conn is one client connection and the state its requests reuse.
type conn struct {
	s      *Server
	rwc    net.Conn
	born   int64 // accept time, Unix nanoseconds
	state  atomic.Int32
	remote string

	lr       limitReader
	br       *bufio.Reader
	lastPOST bool // the previous request was a POST

	res  response
	body body
	out  []byte // the reply as written: head, then body
	aw   appendWriter

	dateSec int64 // the second date holds
	date    []byte
}

// limitReader is the connection as the request parser reads it. It reports
// EOF once n bytes have been read, which bounds a request head; n is
// unlimited while a handler reads the body.
type limitReader struct {
	r io.Reader
	n int64
}

func (l *limitReader) Read(p []byte) (int, error) {
	if l.n <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > l.n {
		p = p[:l.n]
	}
	n, err := l.r.Read(p)
	l.n -= int64(n)
	return n, err
}

// serve runs the connection's request loop until the connection closes or
// must close, then closes it and marks its goroutine done.
func (c *conn) serve() {
	defer func() {
		// A panic outside the handlers' own recovery closes this
		// connection only, as under net/http.Server.
		if p := recover(); p != nil && p != http.ErrAbortHandler {
			buf := make([]byte, 64<<10)
			buf = buf[:runtime.Stack(buf, false)]
			log.Printf("h1: panic serving %s: %v\n%s", c.remote, p, buf)
		}
		_ = c.rwc.Close()
		c.s.mu.Lock()
		delete(c.s.conns, c)
		c.s.mu.Unlock()
		c.s.wg.Done()
	}()
	if ra := c.rwc.RemoteAddr(); ra != nil {
		c.remote = ra.String()
	}
	c.lr.r = c.rwc
	c.br = bufio.NewReader(&c.lr)
	c.res.header = http.Header{}
	prev := stateNew
	for {
		req, err := c.readRequest()
		if !c.state.CompareAndSwap(prev, stateActive) {
			return // Shutdown or Close closed the connection
		}
		if err != nil {
			c.replyError(err)
			return
		}
		if !c.serveRequest(req) || !c.state.CompareAndSwap(stateActive, stateIdle) {
			return
		}
		prev = stateIdle
		if c.s.closed.Load() {
			return
		}
		// Wait for the next request without starting its head's read limit.
		if _, err := c.br.Peek(4); err != nil {
			return
		}
	}
}

var errTooLarge = errors.New("h1: request head too large")

// statusError is a rejected request, answered with its status and text.
type statusError struct {
	code int
	text string
}

func (e statusError) Error() string { return http.StatusText(e.code) + ": " + e.text }

// readRequest reads the next request head and applies net/http.Server's
// checks to it.
func (c *conn) readRequest() (*http.Request, error) {
	c.lr.n = headLimit
	if c.lastPOST {
		// Tolerate the stray CRLF old clients send after a POST body.
		peek, _ := c.br.Peek(4)
		_, _ = c.br.Discard(leadingCRLF(peek))
	}
	req, err := http.ReadRequest(c.br)
	if err != nil {
		if c.lr.n <= 0 {
			return nil, errTooLarge
		}
		return nil, err
	}
	if req.ProtoMajor != 1 &&
		!(req.ProtoMajor == 2 && req.ProtoMinor == 0 && req.Method == "PRI" && req.RequestURI == "*") {
		return nil, statusError{http.StatusHTTPVersionNotSupported, "unsupported protocol version"}
	}
	c.lastPOST = req.Method == http.MethodPost
	c.lr.n = math.MaxInt64
	// The HTTP/2 preface parses as "PRI * HTTP/2.0" and needs no Host.
	if req.ProtoAtLeast(1, 1) && req.Host == "" && !isH2Upgrade(req) && req.Method != http.MethodConnect {
		return nil, statusError{http.StatusBadRequest, "missing required Host header"}
	}
	if req.URL.Host == "" && !validHost(req.Host) {
		return nil, statusError{http.StatusBadRequest, "malformed Host header"}
	}
	// http.ReadRequest already rejects invalid bytes in header values and
	// names, but accepts a space in a name.
	for k := range req.Header {
		if !validHeaderName(k) {
			return nil, statusError{http.StatusBadRequest, "invalid header name"}
		}
	}
	req.RemoteAddr = c.remote
	return req, nil
}

func leadingCRLF(b []byte) int {
	n := 0
	for _, c := range b {
		if c != '\r' && c != '\n' {
			break
		}
		n++
	}
	return n
}

func isH2Upgrade(req *http.Request) bool {
	return req.Method == "PRI" && len(req.Header) == 0 && req.URL.Path == "*" && req.Proto == "HTTP/2.0"
}

// replyError answers a request that failed to parse or pass the checks, in
// net/http.Server's words, and leaves the connection to be closed.
func (c *conn) replyError(err error) {
	const headers = "\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n"
	var se statusError
	switch msg := err.Error(); {
	case err == errTooLarge:
		const text = "431 Request Header Fields Too Large"
		_, _ = io.WriteString(c.rwc, "HTTP/1.1 "+text+headers+text)
		c.closeWriteAndWait()
	// http.ReadRequest reports a Transfer-Encoding it cannot decode with an
	// unexported error type; its messages are what identifies it.
	case strings.HasPrefix(msg, "unsupported transfer encoding") || strings.HasPrefix(msg, "too many transfer encodings"):
		_, _ = io.WriteString(c.rwc, "HTTP/1.1 501 Not Implemented"+headers+"Unsupported transfer encoding")
	case isCommonNetReadError(err):
		// The client went away or sent nothing: no reply.
	case errors.As(err, &se):
		_, _ = fmt.Fprintf(c.rwc, "HTTP/1.1 %d %s: %s%s%d %s: %s",
			se.code, http.StatusText(se.code), se.text, headers, se.code, http.StatusText(se.code), se.text)
	default:
		const text = "400 Bad Request"
		_, _ = io.WriteString(c.rwc, "HTTP/1.1 "+text+headers+text)
	}
}

func isCommonNetReadError(err error) bool {
	if err == io.EOF {
		return true
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		return true
	}
	if oe, ok := err.(*net.OpError); ok && oe.Op == "read" {
		return true
	}
	return false
}

// closeWriteAndWait half-closes the connection and waits before the caller
// closes it, so a client still sending reads the reply before a reset.
func (c *conn) closeWriteAndWait() {
	if cw, ok := c.rwc.(interface{ CloseWrite() error }); ok {
		if err := cw.CloseWrite(); err != nil {
			return // the connection is gone: nothing left to protect
		}
	}
	time.Sleep(rstAvoidanceDelay)
}

// serveRequest runs the handler on req and writes its reply. It reports
// whether the connection may serve another request.
func (c *conn) serveRequest(req *http.Request) bool {
	w := &c.res
	w.reset(req)
	if req.Body != http.NoBody {
		c.body = body{rc: req.Body, conn: c.rwc}
		req.Body = &c.body
		w.reqBody = &c.body
	}
	if hasToken(hget(req.Header, "Expect"), "100-continue") {
		if w.reqBody != nil && req.ProtoAtLeast(1, 1) && req.ContentLength != 0 {
			c.body.expect, c.body.sendContinue = true, true
		}
	} else if hget(req.Header, "Expect") != "" {
		w.header.Set("Connection", "close")
		w.WriteHeader(http.StatusExpectationFailed)
		c.writeReply(w)
		return false
	}
	w.closeAfter = isH2Upgrade(req)
	c.s.Handler.ServeHTTP(w, req)
	return c.writeReply(w)
}

// writeReply finishes the reply the handler buffered in w: it makes
// net/http.Server's header and keep-alive decisions, drains what the
// handler left of the request body, and writes the reply in one write. It
// reports whether the connection may serve another request.
func (c *conn) writeReply(w *response) bool {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	req, h, status := w.req, w.header, w.status
	keepAlives := !c.s.closed.Load()
	isHEAD := req.Method == http.MethodHead
	is11 := req.ProtoAtLeast(1, 1)
	bodyOK := bodyAllowedForStatus(status)

	// Headers the handler set but the reply must not carry are left out
	// of the write, not deleted from the handler's map.
	var exclude map[string]bool
	drop := func(key string) {
		if _, ok := h[key]; ok {
			if exclude == nil {
				exclude = map[string]bool{}
			}
			exclude[key] = true
		}
	}
	drop("Transfer-Encoding")

	setLength := bodyOK && !has(h, "Content-Length") && (!isHEAD || len(w.buf) > 0)
	if setLength {
		w.contentLength = int64(len(w.buf))
	}
	closeAfter := w.closeAfter
	var setConnection string
	if w.wants10KeepAlive && (isHEAD || w.contentLength != -1 || !bodyOK) {
		if !has(h, "Connection") {
			setConnection = "keep-alive"
		}
	} else if !is11 || w.wantsClose {
		closeAfter = true
	}
	if hget(h, "Connection") == "close" || !keepAlives {
		closeAfter = true
	}

	// The request body: an unread 100-continue body closes the connection;
	// otherwise up to maxDrain unread bytes are read past before replying,
	// as a client may send its whole request before reading the reply.
	limitHit := false
	if b := w.reqBody; b != nil {
		if b.expect && !b.eof {
			closeAfter = true
		}
		if req.ContentLength != 0 && !closeAfter && !b.eof {
			switch _, err := io.CopyN(io.Discard, b.rc, maxDrain+1); err {
			case nil:
				limitHit, closeAfter = true, true
				drop("Connection")
				setConnection = "close"
			case io.EOF:
				b.eof = true
			default:
				closeAfter = true
			}
		}
	}

	var setType string
	if bodyOK {
		if !has(h, "Content-Type") && hget(h, "Content-Encoding") == "" && len(w.buf) > 0 {
			setType = http.DetectContentType(w.buf)
		}
	} else {
		drop("Content-Length")
		if status == http.StatusNotModified {
			drop("Content-Type")
		}
	}
	if closeAfter && (!keepAlives || !hasToken(hget(h, "Connection"), "close")) {
		drop("Connection")
		if is11 {
			setConnection = "close"
		}
	}

	c.aw.b = appendStatusLine(c.out[:0], is11, status)
	_ = h.WriteSubset(&c.aw, exclude) // appending cannot fail
	out := c.aw.b
	if !has(h, "Date") {
		out = append(out, "Date: "...)
		out = append(c.appendDate(out), "\r\n"...)
	}
	if setLength {
		out = append(out, "Content-Length: "...)
		out = append(strconv.AppendInt(out, w.contentLength, 10), "\r\n"...)
	}
	out = appendHeader(out, "Content-Type", setType)
	out = appendHeader(out, "Connection", setConnection)
	out = append(out, "\r\n"...)
	if !isHEAD && bodyOK {
		out = append(out, w.buf...)
	}
	_, err := c.rwc.Write(out)
	if cap(out) <= maxKept {
		c.out = out
	} else {
		c.out = nil
	}
	if cap(w.buf) > maxKept {
		w.buf = nil
	}

	switch {
	case err != nil:
		return false
	case closeAfter:
		if limitHit {
			c.closeWriteAndWait()
		}
		return false
	case !isHEAD && bodyOK && w.contentLength != -1 && w.contentLength != w.written:
		// The handler's Content-Length and its body disagree.
		return false
	}
	return true
}

func appendHeader(b []byte, key, value string) []byte {
	if value == "" {
		return b
	}
	b = append(b, key...)
	b = append(b, ": "...)
	b = append(b, value...)
	return append(b, "\r\n"...)
}

func appendStatusLine(b []byte, is11 bool, code int) []byte {
	if is11 {
		b = append(b, "HTTP/1.1 "...)
	} else {
		b = append(b, "HTTP/1.0 "...)
	}
	if text := http.StatusText(code); text != "" {
		b = strconv.AppendInt(b, int64(code), 10)
		b = append(b, ' ')
		b = append(b, text...)
	} else {
		b = fmt.Appendf(b, "%03d status code %d", code, code)
	}
	return append(b, "\r\n"...)
}

// appendDate appends the current time in http.TimeFormat, formatting it
// once per second.
func (c *conn) appendDate(b []byte) []byte {
	now := time.Now()
	if sec := now.Unix(); sec != c.dateSec {
		c.dateSec = sec
		c.date = now.UTC().AppendFormat(c.date[:0], http.TimeFormat)
	}
	return append(b, c.date...)
}

// appendWriter lets http.Header.WriteSubset append to a byte slice.
type appendWriter struct{ b []byte }

func (w *appendWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

func (w *appendWriter) WriteString(s string) (int, error) {
	w.b = append(w.b, s...)
	return len(s), nil
}

// response is the http.ResponseWriter a handler writes its reply into. The
// connection reuses it, its header map and its buffer for every request.
type response struct {
	req     *http.Request
	reqBody *body // nil for a request without a body
	header  http.Header
	status  int    // 0 until WriteHeader
	buf     []byte // the body as written
	written int64
	// contentLength is the handler's Content-Length, or the buffered
	// body's length once the reply is written; -1 when unknown.
	contentLength    int64
	closeAfter       bool
	wants10KeepAlive bool
	wantsClose       bool
}

func (w *response) reset(req *http.Request) {
	clear(w.header)
	*w = response{
		req:              req,
		header:           w.header,
		buf:              w.buf[:0],
		contentLength:    -1,
		wants10KeepAlive: req.ProtoMajor == 1 && req.ProtoMinor == 0 && hasToken(hget(req.Header, "Connection"), "keep-alive"),
		wantsClose:       req.Close || hasToken(hget(req.Header, "Connection"), "close"),
	}
}

func (w *response) Header() http.Header { return w.header }

// WriteHeader records the status. As under net/http.Server, a code outside
// 100–999 panics, a second call is ignored, and a valid Content-Length
// header set before it is the body's promised length.
func (w *response) WriteHeader(code int) {
	if code < 100 || code > 999 {
		panic(fmt.Sprintf("invalid WriteHeader code %v", code))
	}
	if w.status != 0 {
		return
	}
	if code < 101 || code > 199 {
		w.noContinue()
	}
	if code >= 100 && code <= 199 && code != http.StatusSwitchingProtocols {
		return
	}
	w.status = code
	if cl := hget(w.header, "Content-Length"); cl != "" {
		if v, err := strconv.ParseInt(cl, 10, 64); err == nil && v >= 0 {
			w.contentLength = v
		} else {
			w.header.Del("Content-Length")
		}
	}
}

func (w *response) Write(p []byte) (int, error) {
	if err := w.begin(len(p)); err != nil || len(p) == 0 {
		return 0, err
	}
	w.buf = append(w.buf, p...)
	return len(p), nil
}

func (w *response) WriteString(s string) (int, error) {
	if err := w.begin(len(s)); err != nil || len(s) == 0 {
		return 0, err
	}
	w.buf = append(w.buf, s...)
	return len(s), nil
}

// begin admits n more body bytes, with net/http.Server's errors for a
// status without a body and for bytes beyond the promised length.
func (w *response) begin(n int) error {
	w.noContinue()
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	if n == 0 {
		return nil
	}
	if !bodyAllowedForStatus(w.status) {
		return http.ErrBodyNotAllowed
	}
	w.written += int64(n)
	if w.contentLength != -1 && w.written > w.contentLength {
		return http.ErrContentLength
	}
	return nil
}

// noContinue withdraws an unsent 100 Continue once the reply has begun.
func (w *response) noContinue() {
	if w.reqBody != nil {
		w.reqBody.sendContinue = false
	}
}

var continueLine = []byte("HTTP/1.1 100 Continue\r\n\r\n")

// body is a request body as the handler reads it: it sends an owed 100
// Continue before the first read and records reaching EOF. Closing it does
// not read the rest; the server drains or closes after the handler.
type body struct {
	rc                   io.ReadCloser
	conn                 io.Writer
	expect, sendContinue bool
	eof, closed          bool
}

func (b *body) Read(p []byte) (int, error) {
	if b.closed {
		return 0, http.ErrBodyReadAfterClose
	}
	if b.sendContinue {
		b.sendContinue = false
		// A failed write shows up as the reply's write error.
		_, _ = b.conn.Write(continueLine)
	}
	n, err := b.rc.Read(p)
	if err == io.EOF {
		b.eof = true
	}
	return n, err
}

func (b *body) Close() error {
	b.closed = true
	return nil
}

func bodyAllowedForStatus(status int) bool {
	return !(status >= 100 && status <= 199) && status != http.StatusNoContent && status != http.StatusNotModified
}

func hget(h http.Header, key string) string {
	if v := h[key]; len(v) > 0 {
		return v[0]
	}
	return ""
}

func has(h http.Header, key string) bool {
	_, ok := h[key]
	return ok
}

// hasToken reports whether the lower-case token appears in v, ASCII
// case-insensitively, bounded by space, tab, comma or the ends of v.
func hasToken(v, token string) bool {
	for sp := 0; sp+len(token) <= len(v); sp++ {
		if sp > 0 && !isTokenBoundary(v[sp-1]) {
			continue
		}
		if end := sp + len(token); end != len(v) && !isTokenBoundary(v[end]) {
			continue
		}
		if strings.EqualFold(v[sp:sp+len(token)], token) {
			return true
		}
	}
	return false
}

func isTokenBoundary(b byte) bool { return b == ' ' || b == ',' || b == '\t' }

const (
	tokenBytes = "!#$%&'*+-.^_`|~0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
	hostBytes  = "!$%&'()*+,-.:;=[]_~0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
)

// isToken and isHost are the byte classes of an RFC 7230 token and of
// net/http.Server's lenient Host check.
var isToken, isHost = byteSet(tokenBytes), byteSet(hostBytes)

func byteSet(s string) (set [256]bool) {
	for i := 0; i < len(s); i++ {
		set[s[i]] = true
	}
	return set
}

func validHeaderName(k string) bool {
	if k == "" {
		return false
	}
	for i := 0; i < len(k); i++ {
		if !isToken[k[i]] {
			return false
		}
	}
	return true
}

func validHost(h string) bool {
	for i := 0; i < len(h); i++ {
		if !isHost[h[i]] {
			return false
		}
	}
	return true
}
