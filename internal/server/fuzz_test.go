package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"structlayout/internal/driver"
	"structlayout/internal/irtext"
	"structlayout/internal/irtext/irtexttest"
	"structlayout/internal/machine"
)

// FuzzAnalyzeRequest posts arbitrary bodies to /v1/analyze through the
// real handler of a one-worker server. That server's static reserve
// exceeds its largest deadline and the target clears measure_runs, so no
// input starts a simulation: each program is analyzed from its given
// artifacts, a replayed collection or the static rung. Every answer must
// be 200, 400 or 422 with a body that decodes, and no handler may panic.
// The seeds are every committed program and one request that supplies
// its own profile and trace.
func FuzzAnalyzeRequest(f *testing.F) {
	for _, slp := range irtexttest.Committed(f) {
		f.Add(mustJSON(f, AnalyzeRequest{Program: slp.Src}))
	}
	f.Add(mustJSON(f, givenRequest(f)))
	s := New(Config{Workers: 1, MaxDeadline: time.Second, StaticReserve: time.Minute})
	f.Fuzz(func(t *testing.T, body []byte) {
		var req AnalyzeRequest
		if json.Unmarshal(body, &req) == nil {
			req.MeasureRuns = 0
			body = mustJSON(t, req)
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body)))
		var decoded any = &errorBody{}
		switch rec.Code {
		case http.StatusOK:
			decoded = &AnalyzeResponse{}
		case http.StatusBadRequest, http.StatusUnprocessableEntity:
		default:
			t.Fatalf("status %d for %s\n%s", rec.Code, body, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), decoded); err != nil {
			t.Fatalf("status %d body does not decode: %v\n%s", rec.Code, err, rec.Body)
		}
		if st := s.Stats(); st.Panics != 0 {
			t.Fatalf("%d panics after %s", st.Panics, body)
		}
	})
}

// givenRequest is an analyze request that supplies the profile and trace
// of a Way16 collection of a small program.
func givenRequest(tb testing.TB) AnalyzeRequest {
	src := testProgram("fuzzgiven")
	file, err := irtext.Parse(src)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := driver.Collect(file, driver.Config{Topo: machine.Way16(), Seed: 31}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	var pbuf, tbuf bytes.Buffer
	if err := res.Profile.WriteJSON(&pbuf); err != nil {
		tb.Fatal(err)
	}
	if err := res.Trace.WriteJSON(&tbuf); err != nil {
		tb.Fatal(err)
	}
	return AnalyzeRequest{Program: src, Profile: pbuf.Bytes(), Trace: tbuf.Bytes()}
}
