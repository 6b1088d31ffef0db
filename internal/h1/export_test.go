package h1

import (
	"bufio"
	"bytes"
	"io"
)

// ScanRequests reads raw, the bytes a connection received, request by
// request with the scanner, skipping each body, and returns each request's
// method and URI. rest is what is left from the first head the scanner
// declines, or nil.
func ScanRequests(raw []byte) (reqs []string, rest []byte) {
	br := bufio.NewReaderSize(bytes.NewReader(raw), len(raw)+16)
	var h requestHead
	for {
		if _, err := br.Peek(1); err != nil {
			return reqs, nil
		}
		req, ok := h.scan(br)
		if !ok {
			rest, _ = br.Peek(br.Buffered())
			return reqs, rest
		}
		if _, err := io.Copy(io.Discard, req.Body); err != nil {
			return reqs, []byte(err.Error())
		}
		reqs = append(reqs, req.Method+" "+req.RequestURI)
	}
}
