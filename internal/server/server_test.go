package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"structlayout/internal/driver"
	"structlayout/internal/irtext"
	"structlayout/internal/machine"
	"structlayout/internal/memo"
)

// testProgram returns a small valid DSL program. Distinct names keep each
// test's cache keys disjoint (memo.Shared() is process-global), so a test
// that wants the cold rung is not poisoned by an earlier test's replay.
func testProgram(name string) string {
	return fmt.Sprintf(`
program %s

struct stats {
    s_lock  i64
    s_reqs  i64
    s_errs  i64
    s_local arr 4 8 align 8
}

proc bump {
    lock stats.s_lock param 0
    write stats.s_reqs shared 0
    write stats.s_errs shared 0
    unlock stats.s_lock param 0
    compute 20
}

proc worker {
    loop 8 {
        call bump
    }
}

arena stats 8
thread 0 worker params 0 iters 2
thread 1 worker params 1 iters 2
`, name)
}

// testProgramBig is testProgram at a traffic level that yields a usable
// concurrency map: tests asserting a clean (non-degraded) analysis need
// enough concurrent overlap in the trace for the dynamic path to engage.
func testProgramBig(name string) string {
	return fmt.Sprintf(`
program %s

struct conn {
    c_state     i64
    c_accepts   i64
    c_deadline  i64
    c_flags     i64
    c_rxq       i64
    c_txq       i64
    c_peer      arr 2 8 align 8
    c_stats     arr 6 8 align 8
}

proc timeout_scan {
    loop 192 {
        read conn.c_state loopvar
        read conn.c_deadline loopvar
        compute 18
    }
}

proc serve_request {
    read conn.c_flags param 0
    read conn.c_rxq param 0
    write conn.c_txq param 0
    read conn.c_accepts shared 0
    write conn.c_accepts shared 0
    compute 140
}

proc worker {
    loop 24 {
        call serve_request
    }
    call timeout_scan
}

arena conn 64
thread 0 worker params 8 iters 4
thread 1 worker params 9 iters 4
thread 2 worker params 10 iters 4
thread 3 worker params 11 iters 4
`, name)
}

func postAnalyze(t *testing.T, ts *httptest.Server, req AnalyzeRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return postRaw(t, ts, "/v1/analyze", body)
}

func postRaw(t *testing.T, ts *httptest.Server, path string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func decodeAnalyze(t *testing.T, body []byte) *AnalyzeResponse {
	t.Helper()
	var ar AnalyzeResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatalf("decoding response: %v\n%s", err, body)
	}
	return &ar
}

func TestAnalyzeHappyPath(t *testing.T) {
	memo.Shared().Clear() // the first request must collect, even on a rerun
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postAnalyze(t, ts, AnalyzeRequest{Program: testProgramBig("happy"), Mode: "both", Seed: 11})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	ar := decodeAnalyze(t, body)
	if ar.Ladder != LadderFull {
		t.Fatalf("ladder %q, want full", ar.Ladder)
	}
	if ar.Degraded {
		t.Fatalf("clean request labeled degraded: %s", body)
	}
	if ar.Quality.Verdict != "OK" && ar.Quality.Verdict != "SUSPECT" {
		t.Fatalf("verdict %q for a clean collection", ar.Quality.Verdict)
	}
	if len(ar.Structs) != 1 || ar.Structs[0].Struct != "conn" {
		t.Fatalf("structs: %+v", ar.Structs)
	}
	if ar.Structs[0].Auto == nil || ar.Structs[0].Best == nil {
		t.Fatalf("mode both returned auto=%v best=%v", ar.Structs[0].Auto, ar.Structs[0].Best)
	}
	if len(ar.Structs[0].Auto.Fields) != 8 {
		t.Fatalf("auto fields: %+v", ar.Structs[0].Auto.Fields)
	}
	// This program scans c_state/c_deadline while every worker bumps the
	// shared c_accepts on the same line: the lint must fire.
	if len(ar.Lint) == 0 {
		t.Fatal("no lint findings for a seeded false-sharing program")
	}
	st := s.Stats()
	if st.OK != 1 || st.LadderFull != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestAnalyzeReplayRung(t *testing.T) {
	memo.Shared().Clear() // the first request must collect, even on a rerun
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := AnalyzeRequest{Program: testProgram("replay"), Seed: 21}
	resp, body := postAnalyze(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first: status %d: %s", resp.StatusCode, body)
	}
	if ar := decodeAnalyze(t, body); ar.Ladder != LadderFull {
		t.Fatalf("first ladder %q, want full", ar.Ladder)
	}
	resp, body = postAnalyze(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second: status %d: %s", resp.StatusCode, body)
	}
	if ar := decodeAnalyze(t, body); ar.Ladder != LadderReplay {
		t.Fatalf("second ladder %q, want replay", ar.Ladder)
	}
}

func TestAnalyzeGivenRung(t *testing.T) {
	file, err := irtext.Parse(testProgram("given"))
	if err != nil {
		t.Fatal(err)
	}
	topo, err := machine.ByName("way16")
	if err != nil {
		t.Fatal(err)
	}
	res, err := driver.Collect(file, driver.Config{Topo: topo, Seed: 31}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var pbuf, tbuf bytes.Buffer
	if err := res.Profile.WriteJSON(&pbuf); err != nil {
		t.Fatal(err)
	}
	if err := res.Trace.WriteJSON(&tbuf); err != nil {
		t.Fatal(err)
	}

	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postAnalyze(t, ts, AnalyzeRequest{
		Program: testProgram("given"),
		Profile: pbuf.Bytes(),
		Trace:   tbuf.Bytes(),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ar := decodeAnalyze(t, body); ar.Ladder != LadderGiven {
		t.Fatalf("ladder %q, want given", ar.Ladder)
	}

	// A trace without its profile is an input error, not a degradation.
	resp, body = postAnalyze(t, ts, AnalyzeRequest{Program: testProgram("given"), Trace: tbuf.Bytes()})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("trace-only: status %d: %s", resp.StatusCode, body)
	}
}

func TestAnalyzeStaticRungOnTightBudget(t *testing.T) {
	// A static reserve that leaves ~100ms of a 2s deadline for collection,
	// below the 300ms cost guess, forces the bottom rung without relying
	// on wall-clock behaviour.
	s := New(Config{StaticReserve: 1900 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postAnalyze(t, ts, AnalyzeRequest{Program: testProgram("tight"), Seed: 41, DeadlineMS: 2000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	ar := decodeAnalyze(t, body)
	if ar.Ladder != LadderStatic {
		t.Fatalf("ladder %q, want static", ar.Ladder)
	}
	if !ar.Degraded || ar.Quality.Verdict != "DEGRADED" {
		t.Fatalf("static rung not labeled: degraded=%v verdict=%q", ar.Degraded, ar.Quality.Verdict)
	}
	found := false
	for _, d := range ar.Diagnostics {
		if d.Code == "deadline-degraded" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no deadline-degraded diagnostic: %+v", ar.Diagnostics)
	}
	// The degraded layout is still a real layout.
	if len(ar.Structs) != 1 || ar.Structs[0].Auto == nil {
		t.Fatalf("structs: %+v", ar.Structs)
	}
	if st := s.Stats(); st.LadderStatic != 1 || st.Degraded != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestBadRequests(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		body []byte
		code string
	}{
		{"truncated json", []byte(`{"program": "pro`), "json"},
		{"unparseable program", mustJSON(t, AnalyzeRequest{Program: "program broken\nstruct {"}), "bad-program"},
		{"unknown machine", mustJSON(t, AnalyzeRequest{Program: testProgram("bad1"), Machine: "cray1"}), "bad-machine"},
		{"unknown mode", mustJSON(t, AnalyzeRequest{Program: testProgram("bad2"), Mode: "fastest"}), "bad-mode"},
		{"unknown struct", mustJSON(t, AnalyzeRequest{Program: testProgram("bad3"), Struct: "nosuch"}), "bad-struct"},
		{"bad fault spec", mustJSON(t, AnalyzeRequest{Program: testProgram("bad4"), Inject: "loss=banana"}), "bad-inject"},
	}
	for _, tc := range cases {
		resp, body := postRaw(t, ts, "/v1/analyze", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, body)
			continue
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil {
			t.Errorf("%s: non-JSON error body %s", tc.name, body)
			continue
		}
		if eb.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, eb.Code, tc.code)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/analyze")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET: status %d, want 405", resp.StatusCode)
	}

	if st := s.Stats(); st.BadRequest != uint64(len(cases))+1 || st.OK != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestLintEndpoint(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := mustJSON(t, LintRequest{Program: testProgram("lintme")})
	resp, raw := postRaw(t, ts, "/v1/lint", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var lr LintResponse
	if err := json.Unmarshal(raw, &lr); err != nil {
		t.Fatalf("decoding: %v\n%s", err, raw)
	}
	if lr.Count == 0 || len(lr.Findings) != lr.Count {
		t.Fatalf("findings: %+v", lr)
	}
	if lr.MaxSeverity == "" {
		t.Fatal("empty max severity")
	}
}

// TestLintLineSize: line_size must be a positive power of two, the rule
// the cache simulator applies; 0 or omitted means 128.
func TestLintLineSize(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	lint := func(body []byte) (int, []byte) {
		resp, raw := postRaw(t, ts, "/v1/lint", body)
		return resp.StatusCode, raw
	}
	prog := testProgram("linesize")
	for _, n := range []int{7, 3, 100, -128} {
		code, raw := lint(mustJSON(t, LintRequest{Program: prog, LineSize: n}))
		var eb errorBody
		if err := json.Unmarshal(raw, &eb); code != http.StatusBadRequest || err != nil || eb.Code != "bad-line-size" {
			t.Errorf("line_size %d: status %d, body %s; want 400 bad-line-size", n, code, raw)
		}
	}
	code, want := lint(mustJSON(t, LintRequest{Program: prog, LineSize: 128}))
	if code != http.StatusOK {
		t.Fatalf("line_size 128: status %d: %s", code, want)
	}
	for _, body := range [][]byte{mustJSON(t, LintRequest{Program: prog}), mustJSON(t, map[string]any{"program": prog, "line_size": 0})} {
		if code, got := lint(body); code != http.StatusOK || !bytes.Equal(got, want) {
			t.Errorf("%s: status %d, body differs from line_size 128:\n%s\nvs\n%s", body, code, got, want)
		}
	}
	if code, raw := lint(mustJSON(t, LintRequest{Program: prog, LineSize: 64})); code != http.StatusOK {
		t.Errorf("line_size 64: status %d: %s", code, raw)
	}
	if st := s.Stats(); st.BadRequest != 4 || st.OK != 4 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestSimFieldIgnored: a body still carrying the removed "sim" field is
// answered like one without it, measurements included: the decoder
// ignores it like any unknown field.
func TestSimFieldIgnored(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The second plain request replays the first one's collection, as
	// every request after it does.
	req := AnalyzeRequest{Program: testProgram("simfield"), Machine: "bus4", MeasureRuns: 1, DeadlineMS: 30000}
	postAnalyze(t, ts, req)
	resp, raw := postAnalyze(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	want := decodeAnalyze(t, raw)
	if want.Measure == nil {
		t.Fatalf("no measurement: %s", raw)
	}
	for _, sim := range []string{"sampled", "exact", "bogus"} {
		var body map[string]any
		if err := json.Unmarshal(mustJSON(t, req), &body); err != nil {
			t.Fatal(err)
		}
		body["sim"] = sim
		resp, raw := postRaw(t, ts, "/v1/analyze", mustJSON(t, body))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sim %q: status %d: %s", sim, resp.StatusCode, raw)
		}
		got := decodeAnalyze(t, raw)
		got.ElapsedMS = want.ElapsedMS
		if !reflect.DeepEqual(got, want) {
			t.Errorf("sim %q: response differs:\n%+v\nvs\n%+v", sim, got, want)
		}
	}
}

func TestLoadSheddingAndQueueDeadline(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	block := make(chan struct{})
	entered := make(chan struct{}, 8)
	s.hookAdmitted = func() {
		entered <- struct{}{}
		<-block
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the single worker.
	done := make(chan struct{})
	go func() {
		defer close(done)
		postAnalyze(t, ts, AnalyzeRequest{Program: testProgram("shedhold"), Seed: 51})
	}()
	<-entered

	// The worker is held and the queue has one seat. A request with a
	// short deadline queues, then answers 504 when the deadline expires.
	resp, body := postAnalyze(t, ts, AnalyzeRequest{Program: testProgram("shedqa"), Seed: 52, DeadlineMS: 80})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("queued request: status %d, want 504 (%s)", resp.StatusCode, body)
	}

	// Fill the queue seat for real, then exceed it: explicit 429.
	queued := make(chan struct{})
	go func() {
		defer close(queued)
		postAnalyze(t, ts, AnalyzeRequest{Program: testProgram("shedqb"), Seed: 53, DeadlineMS: 4000})
	}()
	waitFor(t, func() bool { return s.queued.Load() == 1 })
	resp, body = postAnalyze(t, ts, AnalyzeRequest{Program: testProgram("shedover"), Seed: 54})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-queue request: status %d, want 429 (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	close(block)
	<-done
	<-queued
	st := s.Stats()
	if st.Shed != 1 || st.DeadlineHit != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestPanicIsolation(t *testing.T) {
	var logs []string
	var logMu sync.Mutex
	s := New(Config{Logf: func(f string, a ...any) {
		logMu.Lock()
		logs = append(logs, fmt.Sprintf(f, a...))
		logMu.Unlock()
	}})
	var boom atomic.Bool
	s.hookAdmitted = func() {
		if boom.CompareAndSwap(true, false) {
			panic("injected")
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	boom.Store(true)
	resp, body := postAnalyze(t, ts, AnalyzeRequest{Program: testProgram("panicky"), Seed: 61})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 (%s)", resp.StatusCode, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Code != "panic" {
		t.Fatalf("error body %s", body)
	}

	// The process survived: health is green, the panic is counted, the
	// diagnostic (with stack) was logged, and the next request succeeds.
	resp, body = postRaw(t, ts, "/v1/analyze", mustJSON(t, AnalyzeRequest{Program: testProgram("panicky"), Seed: 62}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after panic: status %d (%s)", resp.StatusCode, body)
	}
	hr, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d after panic", hr.StatusCode)
	}
	if st := s.Stats(); st.Panics != 1 {
		t.Fatalf("stats: %+v", st)
	}
	logMu.Lock()
	defer logMu.Unlock()
	joined := strings.Join(logs, "\n")
	if !strings.Contains(joined, "injected") || !strings.Contains(joined, "goroutine") {
		t.Fatalf("panic log missing value or stack:\n%s", joined)
	}
}

// TestNegativeInstanceRejected: a DSL access or lock at a negative
// shared or parameter instance, or a region access that would land
// before its region, is a bad program (400), not an engine panic or a
// write to a neighbouring region, and the server keeps serving.
func TestNegativeInstanceRejected(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	stmts := []string{
		"write stats.s_reqs param -1",
		"read stats.s_reqs shared -2",
		"lock stats.s_lock shared -1\n    unlock stats.s_lock shared -1",
		"memat buf write -200",
		"memsweep buf read 0",
	}
	for i, stmt := range stmts {
		prog := strings.Replace(testProgram(fmt.Sprintf("negative%d", i)), "write stats.s_reqs shared 0", stmt, 1)
		prog = strings.Replace(prog, "proc bump {", "region buf 256 shared\n\nproc bump {", 1)
		req := httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(mustJSON(t, AnalyzeRequest{Program: prog, Seed: 91})))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var eb errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || rec.Code != http.StatusBadRequest || eb.Code != "bad-program" {
			t.Fatalf("%q: status %d, body %s; want 400 bad-program", stmt, rec.Code, rec.Body)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(mustJSON(t, AnalyzeRequest{Program: testProgram("negativeafter"), Seed: 91}))))
	if rec.Code != http.StatusOK {
		t.Fatalf("valid request after the rejections: status %d (%s)", rec.Code, rec.Body)
	}
	if st := s.Stats(); st.Panics != 0 || st.BadRequest != uint64(len(stmts)) {
		t.Fatalf("stats: %+v, want 0 panics and %d bad requests", st, len(stmts))
	}
}

// TestCollectionPanicIsolation: a panic in the goroutine that runs a fresh
// collection, outside the handler's guard, costs its request a 500 and is
// counted once; the process keeps serving.
func TestCollectionPanicIsolation(t *testing.T) {
	memo.Shared().Clear() // the first request must collect, even on a rerun
	s := New(Config{Logf: func(string, ...any) {}})
	var boom atomic.Bool
	s.hookCollect = func() {
		if boom.CompareAndSwap(true, false) {
			panic("injected in collection")
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	boom.Store(true)
	resp, body := postAnalyze(t, ts, AnalyzeRequest{Program: testProgram("collectpanic"), Seed: 63})
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || resp.StatusCode != http.StatusInternalServerError || eb.Code != "panic" {
		t.Fatalf("status %d, body %s; want 500 panic", resp.StatusCode, body)
	}
	resp, body = postAnalyze(t, ts, AnalyzeRequest{Program: testProgram("collectpanic"), Seed: 63})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after the panic: status %d (%s)", resp.StatusCode, body)
	}
	if ar := decodeAnalyze(t, body); ar.Ladder != LadderFull {
		t.Fatalf("retry took the %s rung, want a fresh collection", ar.Ladder)
	}
	if st := s.Stats(); st.Panics != 1 {
		t.Fatalf("stats: %+v, want 1 panic", st)
	}
}

// TestAbandonedCollectionKeepsSlot: a request whose collection overruns
// its budget answers from the static rung, but the abandoned collection
// keeps the request's worker slot until it finishes. With one worker, a
// second request waits in the queue and answers 504 at its deadline while
// the collection is held; once the collection finishes, the slot is free.
func TestAbandonedCollectionKeepsSlot(t *testing.T) {
	memo.Shared().Clear() // the first request must collect, even on a rerun
	s := New(Config{Workers: 1, QueueDepth: 1, StaticReserve: 100 * time.Millisecond, Logf: func(string, ...any) {}})
	hold := make(chan struct{})
	finish := sync.OnceFunc(func() { close(hold) })
	defer finish()
	var held atomic.Bool
	s.hookCollect = func() {
		if held.CompareAndSwap(false, true) {
			<-hold
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postAnalyze(t, ts, AnalyzeRequest{Program: testProgram("abandoned"), Seed: 81, DeadlineMS: 600})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s), want 200", resp.StatusCode, body)
	}
	if ar := decodeAnalyze(t, body); ar.Ladder != LadderStatic {
		t.Fatalf("held collection served the %s rung, want static", ar.Ladder)
	}
	if n := s.inflight.Load(); n != 1 {
		t.Fatalf("inflight %d after the request returned, want 1 (the abandoned collection)", n)
	}
	resp, body = postAnalyze(t, ts, AnalyzeRequest{Program: testProgram("queued"), Seed: 82, DeadlineMS: 200})
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || resp.StatusCode != http.StatusGatewayTimeout || eb.Code != "deadline" {
		t.Fatalf("second request: status %d, body %s; want 504 deadline while queued", resp.StatusCode, body)
	}
	finish()
	for deadline := time.Now().Add(10 * time.Second); s.inflight.Load() != 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the finished collection never released its slot")
		}
	}
	resp, body = postAnalyze(t, ts, AnalyzeRequest{Program: testProgram("queued"), Seed: 82, DeadlineMS: 5000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after the collection finished: status %d (%s), want 200", resp.StatusCode, body)
	}
	if st := s.Stats(); st.DeadlineHit != 1 || st.LadderStatic != 1 {
		t.Fatalf("stats: %+v, want 1 deadline hit and 1 static answer", st)
	}
}

// TestCorruptCollectionEntryCollectsAfresh: a collection entry in the
// disk tier that fails its check is not ready for replay, so the request
// collects on the full rung, under the reserve timer, instead of taking
// the replay rung and simulating inside the handler.
func TestCorruptCollectionEntryCollectsAfresh(t *testing.T) {
	src, err := os.ReadFile("../../examples/dslprogram/webserver.slp")
	if err != nil {
		t.Fatal(err)
	}
	file, err := irtext.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	cfg := driver.Config{Topo: machine.Bus4(), Seed: 5}
	req := AnalyzeRequest{Program: string(src), Machine: "bus4", Seed: 5}
	dir := t.TempDir()
	memo.Shared().Clear()
	if err := memo.Shared().SetDir(dir); err != nil {
		t.Fatal(err)
	}
	defer func() {
		memo.Shared().SetDir("")
		memo.Shared().Clear()
	}()
	if _, _, _, err := driver.CollectCached(file, cfg); err != nil {
		t.Fatal(err)
	}
	ents, err := filepath.Glob(filepath.Join(dir, "*", "*.json"))
	if err != nil || len(ents) != 1 {
		t.Fatalf("disk tier holds %v (%v), want one collection entry", ents, err)
	}
	s := New(Config{Logf: func(string, ...any) {}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The intact entry replays: it is the one this request reads.
	memo.Shared().Clear()
	if !driver.CollectCacheReady(file, cfg) {
		t.Fatal("intact disk entry not ready")
	}
	resp, body := postAnalyze(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("intact entry: status %d: %s", resp.StatusCode, body)
	}
	if ar := decodeAnalyze(t, body); ar.Ladder != LadderReplay {
		t.Fatalf("intact entry took the %s rung, want replay", ar.Ladder)
	}

	memo.Shared().Clear()
	if err := os.WriteFile(ents[0], []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if driver.CollectCacheReady(file, cfg) {
		t.Fatal("corrupt disk entry reported ready")
	}
	resp, body = postAnalyze(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("corrupt entry: status %d: %s", resp.StatusCode, body)
	}
	if ar := decodeAnalyze(t, body); ar.Ladder != LadderFull {
		t.Fatalf("corrupt entry took the %s rung, want full", ar.Ladder)
	}
	if st := memo.Shared().Stats(); st.Misses != 1 || st.Errors != 1 || st.DiskHits != 0 {
		t.Fatalf("memo stats %+v, want the corrupt entry read once: 1 miss, 1 error", st)
	}
}

func TestDrain(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if s.Draining() {
		t.Fatal("draining before Drain")
	}
	s.Drain()
	s.Drain() // idempotent

	resp, body := postAnalyze(t, ts, AnalyzeRequest{Program: testProgram("drained"), Seed: 71})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (%s)", resp.StatusCode, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Code != "draining" {
		t.Fatalf("error body %s", body)
	}
	rr, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz %d while draining, want 503", rr.StatusCode)
	}
	// Liveness stays green: draining is voluntary, not a failure.
	hr, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d while draining, want 200", hr.StatusCode)
	}
}

// TestChaosMini is the in-process chaos drill: concurrent clients with
// mixed clean/faulted/tight-deadline/malformed traffic against a small
// worker pool. Every response must be a labeled success or an explicit
// error status, and the server must record zero panics. Run with -race
// this doubles as the server's data-race test.
func TestChaosMini(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 2, StaticReserve: 100 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 6
	const perClient = 8
	var unexpected atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				req := AnalyzeRequest{
					Program: testProgram(fmt.Sprintf("chaos%d", (id+i)%3)),
					Seed:    int64(81 + i%2),
				}
				switch (id + i) % 4 {
				case 0:
					req.Inject = "loss=0.4,seed=9"
				case 1:
					req.DeadlineMS = 40
				case 2:
					req.Program = "program broken {"
				}
				body, _ := json.Marshal(req)
				resp, raw := postRaw(t, ts, "/v1/analyze", body)
				switch resp.StatusCode {
				case http.StatusOK:
					var ar AnalyzeResponse
					if err := json.Unmarshal(raw, &ar); err != nil || ar.Ladder == "" || ar.Quality.Verdict == "" {
						unexpected.Add(1)
					}
				case http.StatusBadRequest, http.StatusTooManyRequests,
					http.StatusGatewayTimeout, http.StatusServiceUnavailable:
					// Explicit, machine-readable refusals are within contract.
				default:
					t.Errorf("client %d req %d: unexpected status %d: %s", id, i, resp.StatusCode, raw)
				}
			}
		}(c)
	}
	wg.Wait()

	if n := unexpected.Load(); n != 0 {
		t.Fatalf("%d unlabeled 200 responses", n)
	}
	st := s.Stats()
	if st.Panics != 0 || st.Errors != 0 {
		t.Fatalf("panics/errors after chaos: %+v", st)
	}
	if st.Requests != clients*perClient {
		t.Fatalf("requests %d, want %d", st.Requests, clients*perClient)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
