package service

import (
	"encoding/json"
	"net/http"
	"reflect"
	"testing"
)

// The decode fuzz targets pin the validation layer of the error model: for
// ANY body, decodeStrict must not panic, a rejection must classify as 400
// invalid_request (never a 5xx), and an accepted body must survive a
// marshal/decode round trip unchanged — i.e. strictness is self-consistent.
// Seeds come straight from the TestErrorModel table.

func fuzzDecode[T any](t *testing.T, data []byte) {
	var req T
	err := decodeStrict(data, &req)
	if err != nil {
		ae := toAPIError(err)
		if ae.status != http.StatusBadRequest || ae.code != "invalid_request" {
			t.Fatalf("decode rejection classified as %d %q, want 400 invalid_request (body %q)",
				ae.status, ae.code, data)
		}
		return
	}
	out, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("accepted request does not re-marshal: %v (body %q)", err, data)
	}
	var again T
	if err := decodeStrict(out, &again); err != nil {
		t.Fatalf("re-marshaled request rejected: %v (body %q -> %q)", err, data, out)
	}
	if !reflect.DeepEqual(req, again) {
		t.Fatalf("round trip changed the request: %+v vs %+v (body %q)", req, again, data)
	}
}

func FuzzDecodeOptimizeRequest(f *testing.F) {
	for _, seed := range []string{
		`{"op":{"name":"qk","m":512,"k":64,"l":512},"buffer":65536}`,
		`{"op":`,
		`{"op":{"m":8,"k":8,"l":8},"buffer":64,"bogus":1}`,
		`{"op":{"m":8,"k":8,"l":8},"buffer":64} {}`,
		`{"op":{"m":0,"k":8,"l":8},"buffer":64}`,
		`{"op":{"m":8,"k":8,"l":8},"buffer":1}`,
		`{"op":{"m":-1,"k":8,"l":8},"buffer":-64,"timeout_ms":-5}`,
		`{"op":{"m":9007199254740993,"k":1,"l":1},"buffer":9223372036854775807}`,
		`null`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzDecode[optimizeRequest](t, data)
	})
}

func FuzzDecodeSearchRequest(f *testing.F) {
	for _, seed := range []string{
		`{"op":{"name":"ref","m":48,"k":32,"l":40},"buffer":4096,"engine":"exhaustive","workers":4}`,
		`{"op":{"m":8,"k":8,"l":8},"buffer":64,"engine":"oracle"}`,
		`{"op":{"m":8,"k":8,"l":8},"buffer":1}`,
		`{"op":{"m":8,"k":8,"l":8},"buffer":64,"seed":-1,"workers":-3}`,
		`{"op":{"m":8,"k":8,"l":8},"buffer":64,"engine":"genetic","timeout_ms":1}`,
		`{"op":{"m":8,"k":8,"l":8},"buffer":64}{"op":{}}`,
		`{"engine":1e309}`,
		`[]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzDecode[searchRequest](t, data)
	})
}
