package h1

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"net/url"
)

// The fleet's requests and replies all share one head shape, and a head of
// that shape is read here in place, in the connection's read buffer, into
// state the connection reuses. A head is read only when all of it is
// already buffered and it has the shape below; any other head is declined
// with nothing consumed, and net/http parses it as before:
//
//   - a request line "GET|POST <path> HTTP/1.1", whose path starts with
//     "/" and holds only bytes that net/url neither unescapes nor escapes
//     (letters, digits and -_.~$&+,/:;=@), or a status line
//     "HTTP/1.1 <code>[ <reason>]" with a code from 200 to 599 other than
//     204 and 304 and a reason of valid value bytes;
//   - "Name: value" lines ending in CRLF, with a token name and a value of
//     valid value bytes once its surrounding spaces and tabs are trimmed;
//   - no Transfer-Encoding, no Expect or Pragma in a request, at most one
//     Content-Length of decimal digits (required in a reply), a Connection
//     value that is exactly "close" or "keep-alive", and in a request
//     exactly one non-empty Host;
//   - no obs-fold line and no bare LF.
//
// On a head it reads, the result equals net/http's field for field:
// http.ReadRequest's method, URL, request URI, protocol, Host (taken out
// of the header map), canonical header keys and values, ContentLength,
// Close and body; http.ReadResponse's status, Content-Length, Close,
// Content-Type, Retry-After and body. FuzzRequestHead and FuzzReplyHead
// check that against net/http on arbitrary bytes. What the shape leaves
// out — chunked bodies, 100-continue, HTTP/1.0, absolute URIs, escaped
// paths and queries, heads split across reads — keeps net/http's parser,
// so every rule it enforces still holds for them.

// maxInterned and maxInternedLen bound the strings one connection interns
// to 16 KiB: the table starts over when it fills, and a longer string is
// allocated each time it is met.
const (
	maxInterned    = 256
	maxInternedLen = 64
)

// isPath is the byte class of a path the scanner reads: url.ParseRequestURI
// keeps it as it is, with no RawPath.
var isPath = byteSet("0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz-_.~$&+,/:;=@")

// Scanner reads the heads of one connection and interns the names and
// values it meets, so a connection that carries the same headers again and
// again allocates none of them after the first time. Its zero value is
// ready to use; it is not safe for concurrent use.
type Scanner struct {
	strs  map[string]string
	canon []byte // scratch for a canonical header name
}

// Reply is a reply head as the router relays it.
type Reply struct {
	Status        int
	ContentLength int64
	Close         bool   // the reply carries Connection: close
	ContentType   string // the first Content-Type value
	RetryAfter    string // the first Retry-After value
}

// ScanReply reads the reply head at the front of br's buffer, which
// answers a GET or POST, and leaves the body's ContentLength bytes to be
// read from br. It reports false, consuming nothing, unless the whole head
// is buffered and has the fleet's shape; http.ReadResponse then reads it.
func (s *Scanner) ScanReply(br *bufio.Reader) (Reply, bool) {
	buf, _ := br.Peek(br.Buffered())
	line, rest, ok := cutLine(buf)
	if !ok {
		return Reply{}, false
	}
	r := Reply{ContentLength: -1}
	if r.Status, ok = statusLine(line); !ok {
		return Reply{}, false
	}
	var typed, retry bool // a Content-Type or Retry-After was seen
	for {
		if line, rest, ok = cutLine(rest); !ok {
			return Reply{}, false
		}
		if len(line) == 0 {
			break
		}
		name, value, ok := headerLine(line)
		if !ok {
			return Reply{}, false
		}
		switch {
		case equalFold(name, "Content-Length"):
			if r.ContentLength >= 0 {
				return Reply{}, false
			}
			if r.ContentLength, ok = parseLength(value); !ok {
				return Reply{}, false
			}
		case equalFold(name, "Content-Type"):
			if !typed {
				r.ContentType, typed = s.str(value), true
			}
		case equalFold(name, "Retry-After"):
			if !retry {
				r.RetryAfter, retry = s.str(value), true
			}
		case equalFold(name, "Connection"):
			if r.Close, ok = connection(value, r.Close); !ok {
				return Reply{}, false
			}
		case equalFold(name, "Transfer-Encoding"):
			return Reply{}, false
		}
	}
	if r.ContentLength < 0 {
		return Reply{}, false
	}
	_, _ = br.Discard(len(buf) - len(rest)) // buffered, so it cannot fail
	return r, true
}

// requestHead is the state a connection reads request heads into: the
// request, its URL, header map and body are reused for every request the
// scanner reads.
type requestHead struct {
	Scanner
	req    http.Request
	url    url.URL
	header http.Header
	vals   []string // backing store of the header map's values
	body   fixedBody
}

// scan reads the request head at the front of br's buffer into h's
// request. It reports false, consuming nothing, unless the whole head is
// buffered and has the fleet's shape; http.ReadRequest then reads it.
func (h *requestHead) scan(br *bufio.Reader) (*http.Request, bool) {
	buf, _ := br.Peek(br.Buffered())
	line, rest, ok := cutLine(buf)
	if !ok {
		return nil, false
	}
	method, path, ok := requestLine(line)
	if !ok {
		return nil, false
	}
	if h.header == nil {
		h.header = http.Header{}
	}
	clear(h.header)
	h.vals = h.vals[:0]
	var host string
	length, closing := int64(-1), false
	for {
		if line, rest, ok = cutLine(rest); !ok {
			return nil, false
		}
		if len(line) == 0 {
			break
		}
		name, value, ok := headerLine(line)
		if !ok {
			return nil, false
		}
		key := h.key(name)
		switch key {
		case "Host":
			// http.ReadRequest moves the Host header to req.Host.
			if host != "" || len(value) == 0 {
				return nil, false
			}
			host = h.str(value)
			continue
		case "Content-Length":
			if length >= 0 {
				return nil, false
			}
			if length, ok = parseLength(value); !ok {
				return nil, false
			}
		case "Connection":
			if closing, ok = connection(value, closing); !ok {
				return nil, false
			}
		case "Transfer-Encoding", "Expect", "Pragma":
			return nil, false
		}
		v := h.str(value)
		if vv, dup := h.header[key]; dup {
			h.header[key] = append(vv, v)
			continue
		}
		n := len(h.vals)
		h.vals = append(h.vals, v)
		h.header[key] = h.vals[n : n+1 : n+1]
	}
	if host == "" {
		return nil, false
	}
	var body io.ReadCloser = http.NoBody
	if length > 0 {
		h.body = fixedBody{r: br, n: length}
		body = &h.body
	}
	p := h.str(path)
	h.url = url.URL{Path: p}
	h.req = http.Request{
		Method:        method,
		URL:           &h.url,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        h.header,
		Body:          body,
		ContentLength: max(length, 0),
		Close:         closing,
		Host:          host,
		RequestURI:    p,
	}
	_, _ = br.Discard(len(buf) - len(rest)) // buffered, so it cannot fail
	return &h.req, true
}

// fixedBody is a request body of known length, read from the connection as
// net/http's body reads it: its last bytes come with io.EOF, and a
// connection that ends first is io.ErrUnexpectedEOF once, then io.EOF.
type fixedBody struct {
	r *bufio.Reader
	n int64 // bytes left
}

func (b *fixedBody) Read(p []byte) (int, error) {
	if b.n <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > b.n {
		p = p[:b.n]
	}
	n, err := b.r.Read(p)
	b.n -= int64(n)
	switch {
	case err == io.EOF:
		b.n = 0
		err = io.ErrUnexpectedEOF
	case err == nil && n > 0 && b.n == 0:
		err = io.EOF
	}
	return n, err
}

func (b *fixedBody) Close() error { return nil }

// str returns b as a string, interned unless it is long.
func (s *Scanner) str(b []byte) string {
	if v, ok := s.strs[string(b)]; ok {
		return v
	}
	if len(b) > maxInternedLen {
		return string(b)
	}
	if s.strs == nil {
		s.strs = map[string]string{}
	} else if len(s.strs) >= maxInterned {
		clear(s.strs)
	}
	v := string(b)
	s.strs[v] = v
	return v
}

// key returns the token name in textproto's canonical form, interned.
func (s *Scanner) key(name []byte) string {
	s.canon = append(s.canon[:0], name...)
	upper := true
	for i, c := range s.canon {
		if upper && 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		} else if !upper && 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		s.canon[i] = c
		upper = c == '-'
	}
	return s.str(s.canon)
}

// cutLine splits off the CRLF-terminated line at the front of b. It
// reports false when no whole line is buffered or a bare LF ends it.
func cutLine(b []byte) (line, rest []byte, ok bool) {
	i := bytes.IndexByte(b, '\n')
	if i < 1 || b[i-1] != '\r' {
		return nil, nil, false
	}
	return b[:i-1], b[i+1:], true
}

func requestLine(line []byte) (method string, path []byte, ok bool) {
	const proto = " HTTP/1.1"
	switch {
	case bytes.HasPrefix(line, []byte("GET ")):
		method, path = http.MethodGet, line[len("GET "):]
	case bytes.HasPrefix(line, []byte("POST ")):
		method, path = http.MethodPost, line[len("POST "):]
	default:
		return "", nil, false
	}
	if !bytes.HasSuffix(path, []byte(proto)) {
		return "", nil, false
	}
	path = path[:len(path)-len(proto)]
	if len(path) == 0 || path[0] != '/' {
		return "", nil, false
	}
	for _, c := range path {
		if !isPath[c] {
			return "", nil, false
		}
	}
	return method, path, true
}

func statusLine(line []byte) (int, bool) {
	const proto = "HTTP/1.1 "
	if len(line) < len(proto)+3 || !bytes.HasPrefix(line, []byte(proto)) {
		return 0, false
	}
	d := line[len(proto):]
	if d[0] < '2' || d[0] > '5' || !isDigit(d[1]) || !isDigit(d[2]) {
		return 0, false
	}
	code := int(d[0]-'0')*100 + int(d[1]-'0')*10 + int(d[2]-'0')
	if code == http.StatusNoContent || code == http.StatusNotModified {
		return 0, false // net/http gives these no body whatever their length
	}
	if reason := d[3:]; len(reason) > 0 {
		if reason[0] != ' ' || !validValue(reason[1:]) {
			return 0, false
		}
	}
	return code, true
}

// headerLine splits a "Name: value" line into its token name and its value
// with the surrounding spaces and tabs trimmed, as textproto does.
func headerLine(line []byte) (name, value []byte, ok bool) {
	i := bytes.IndexByte(line, ':')
	if i <= 0 {
		return nil, nil, false
	}
	name = line[:i]
	for _, c := range name {
		if !isToken[c] {
			return nil, nil, false
		}
	}
	value = bytes.Trim(line[i+1:], " \t")
	if !validValue(value) {
		return nil, nil, false
	}
	return name, value, true
}

// validValue reports whether v holds only the bytes textproto accepts in a
// header value: tab, space, visible ASCII and obs-text.
func validValue(v []byte) bool {
	for _, c := range v {
		if c < ' ' && c != '\t' || c == 0x7f {
			return false
		}
	}
	return true
}

// parseLength reads a Content-Length as http.ReadRequest and
// http.ReadResponse do, for values of at most 18 digits.
func parseLength(v []byte) (int64, bool) {
	if len(v) == 0 || len(v) > 18 {
		return 0, false
	}
	var n int64
	for _, c := range v {
		if !isDigit(c) {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	return n, true
}

// connection folds one Connection value into the close flag, accepting
// only the two values the fleet sends.
func connection(v []byte, closing bool) (bool, bool) {
	switch string(v) {
	case "close":
		return true, true
	case "keep-alive":
		return closing, true
	}
	return false, false
}

// equalFold reports whether the token name equals the canonical key k,
// ASCII case-insensitively. k holds only letters and '-', which no other
// token byte matches under the case bit.
func equalFold(name []byte, k string) bool {
	if len(name) != len(k) {
		return false
	}
	for i, c := range name {
		if c|0x20 != k[i]|0x20 {
			return false
		}
	}
	return true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }
