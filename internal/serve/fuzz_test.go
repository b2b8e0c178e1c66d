package serve

import (
	"bytes"
	"encoding/json"
	"testing"

	"activepages/internal/experiments"
)

// FuzzDecodeRequest feeds arbitrary bodies to the submission gate. No body
// may panic it. An accepted request must keep its SpecKey through a JSON
// re-encode and decode, and spelling a default out (backend "radram",
// page_bytes 65536) or leaving it implicit must not change the key.
func FuzzDecodeRequest(f *testing.F) {
	for _, seed := range []string{
		`{"experiment":"array","quick":true}`,
		`{"experiment":"array","quick":true,"page_bytes":8192}`,
		`{"experiment":"array","quick":true,"backend":"simdram"}`,
		`{"experiment":"fig3","regions":true,"l2":true,"backend":"all"}`,
		`{"experiment":"all","page_bytes":65536,"backend":"radram"}`,
		`{"experiment":"array","page_bytes":16}`,
		`{"experiment":"array","page_bytes":3000}`,
		`{"experiment":"array","backend":"fpga"}`,
		`{"experiment":"matrix-boeing","backend":"simdram"}`,
		`{"experiment":"mpeg-mmx","backend":"all"}`,
		`{"experiment":"array","nope":1}`,
		`{"experiment":"bogus"}`,
		`{}`,
		`not json`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := DecodeRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		key := SpecKey(req)
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request %+v does not encode: %v", req, err)
		}
		again, err := DecodeRequest(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded request %s rejected: %v", enc, err)
		}
		if SpecKey(again) != key {
			t.Fatalf("SpecKey changed through re-encode: %+v vs %+v", req, again)
		}

		norm := req
		switch norm.Backend {
		case "":
			norm.Backend = "radram"
		case "radram":
			norm.Backend = ""
		}
		switch norm.PageBytes {
		case 0:
			norm.PageBytes = experiments.ScaledPageBytes
		case experiments.ScaledPageBytes:
			norm.PageBytes = 0
		}
		if err := norm.validate(); err != nil {
			t.Fatalf("default spelled differently %+v rejected: %v", norm, err)
		}
		if SpecKey(norm) != key {
			t.Fatalf("normalization changed SpecKey: %+v vs %+v", req, norm)
		}
	})
}
