// Package server implements layoutd, the long-running layout-analysis
// service: the one-shot analysis pipeline (parse → collect → analyze →
// layout → lint → verdict) behind an HTTP/JSON API shaped for a fleet of
// build bots or CI requests.
//
// Robustness is the design center, as an operational contract rather than
// a library property:
//
//   - Deadlines: every request carries one (client-supplied, clamped to a
//     maximum) propagated via context.Context through measurement and
//     simulation; a request that cannot finish answers an explicit 504.
//   - Admission control: a bounded worker pool plus a bounded wait queue;
//     traffic beyond both is shed with an explicit 429 instead of piling
//     onto latency for everyone.
//   - Degradation ladder: a request short on budget degrades instead of
//     failing — full measurement, then memoized replay, then a
//     static-prior-only layout — with every response labeled by rung,
//     quality verdict, and `degraded` diagnostics.
//   - Panic isolation: a panic in one request's pipeline answers a 500
//     with a structured diagnostic and never takes the process down.
//   - Graceful drain: SIGTERM (via Drain + http.Server.Shutdown) stops
//     admitting, answers 503 to new work, and lets in-flight requests
//     finish.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// Config holds layoutd's operational knobs.
type Config struct {
	// Workers is the number of requests analyzed concurrently (default
	// GOMAXPROCS). More wait in the queue; beyond that, 429.
	Workers int
	// QueueDepth is how many admitted-but-waiting requests may queue
	// (default 4×Workers). The queue is where a deadline most often
	// expires, so deep queues trade shed rate for timeout rate.
	QueueDepth int
	// DefaultDeadline applies when a request names none (default 5s).
	DefaultDeadline time.Duration
	// MaxDeadline clamps client-supplied deadlines (default 60s).
	MaxDeadline time.Duration
	// StaticReserve is the slice of a request's budget held back for the
	// static-prior-only rung (default 250ms): collection is abandoned
	// early enough that the bottom rung still answers inside the deadline.
	StaticReserve time.Duration
	// DefaultMachine is the collection machine when a request names none
	// (default "way16").
	DefaultMachine string
	// Logf, when non-nil, receives one line per noteworthy server event
	// (panics, drain transitions).
	Logf func(format string, args ...any)
}

func (c *Config) fillDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 5 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 60 * time.Second
	}
	if c.StaticReserve <= 0 {
		c.StaticReserve = 250 * time.Millisecond
	}
	if c.DefaultMachine == "" {
		c.DefaultMachine = "way16"
	}
}

// Stats are layoutd's monotonic counters, exposed at /statusz and
// consumed by the chaos benchmark's assertions.
type Stats struct {
	Requests     uint64 `json:"requests"`
	OK           uint64 `json:"ok"`
	BadRequest   uint64 `json:"bad_request"`
	Shed         uint64 `json:"shed"`          // 429: queue full
	DeadlineHit  uint64 `json:"deadline_hit"`  // 504: deadline expired before/while serving
	Unavailable  uint64 `json:"unavailable"`   // 503: draining
	Panics       uint64 `json:"panics"`        // 500: recovered panics
	Errors       uint64 `json:"errors"`        // 500: non-panic internal errors
	Degraded     uint64 `json:"degraded"`      // responses labeled DEGRADED
	LadderFull   uint64 `json:"ladder_full"`   // rung: fresh collection
	LadderReplay uint64 `json:"ladder_replay"` // rung: memoized replay
	LadderStatic uint64 `json:"ladder_static"` // rung: static-prior-only
	LadderGiven  uint64 `json:"ladder_given"`  // rung: client-supplied artifacts
}

// Server is one layoutd instance. Create with New; it is safe for
// concurrent use by the HTTP stack.
type Server struct {
	cfg      Config
	slots    chan struct{} // worker tokens: capacity cfg.Workers
	queued   atomic.Int64  // requests waiting for a slot
	inflight atomic.Int64  // slots held, by requests or their collections
	draining atomic.Bool
	costEWMA atomic.Uint64 // float64 bits: smoothed collection seconds
	mux      *http.ServeMux

	requests, ok, badRequest, shed, deadlineHit         atomic.Uint64
	unavailable, panics, internalErrs, degraded         atomic.Uint64
	ladderFull, ladderReplay, ladderStatic, ladderGiven atomic.Uint64

	// hookAdmitted, when non-nil, runs after a request acquires a worker
	// slot and before analysis. Tests use it to hold workers busy or to
	// inject panics at a controlled point.
	hookAdmitted func()
	// hookCollect, when non-nil, runs in the goroutine of a fresh
	// collection before it starts. Tests use it to inject panics there.
	hookCollect func()
}

// New returns a configured server with its routes installed.
func New(cfg Config) *Server {
	cfg.fillDefaults()
	s := &Server{cfg: cfg, slots: make(chan struct{}, cfg.Workers)}
	s.costEWMA.Store(math.Float64bits(collectCostGuess.Seconds()))
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/analyze", s.guard("analyze", s.handleAnalyze))
	s.mux.HandleFunc("/v1/lint", s.guard("lint", s.handleLint))
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/statusz", s.handleStatusz)
	return s
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain flips the server into draining mode: /readyz goes 503 so load
// balancers stop routing here, and new API requests answer 503
// immediately. In-flight requests are unaffected; pair with
// http.Server.Shutdown to wait for them.
func (s *Server) Drain() {
	if !s.draining.Swap(true) {
		s.logf("layoutd: draining (new requests rejected, in-flight finishing)")
	}
}

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
	return Stats{
		Requests:     s.requests.Load(),
		OK:           s.ok.Load(),
		BadRequest:   s.badRequest.Load(),
		Shed:         s.shed.Load(),
		DeadlineHit:  s.deadlineHit.Load(),
		Unavailable:  s.unavailable.Load(),
		Panics:       s.panics.Load(),
		Errors:       s.internalErrs.Load(),
		Degraded:     s.degraded.Load(),
		LadderFull:   s.ladderFull.Load(),
		LadderReplay: s.ladderReplay.Load(),
		LadderStatic: s.ladderStatic.Load(),
		LadderGiven:  s.ladderGiven.Load(),
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// guard wraps an API handler with the pieces every request shares: the
// draining gate, request counting, and panic-to-500 recovery with a
// structured diagnostic — one request's panic must never take down the
// process or leak a half-written body into another request.
func (s *Server) guard(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		if s.draining.Load() {
			s.unavailable.Add(1)
			writeError(w, http.StatusServiceUnavailable, "draining", "server is draining; retry against another instance")
			return
		}
		defer func() {
			if rec := recover(); rec != nil {
				s.panics.Add(1)
				s.logf("layoutd: panic in %s: %v\n%s", name, rec, debug.Stack())
				// The response may be unwritten (normal case: panic inside
				// the pipeline, before any write). If headers already went
				// out this write fails silently, which is all that is left.
				writeError(w, http.StatusInternalServerError, "panic",
					fmt.Sprintf("internal error in %s (diagnostic captured server-side)", name))
			}
		}()
		h(w, r)
	}
}

// errorBody is the explicit failure contract: every non-200 carries a
// machine-readable code so clients (and the chaos harness) can tell shed
// from timeout from crash.
type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorBody{Error: msg, Code: code})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// slot is an admitted request's worker token. It returns to the pool once
// every holder has let go: the request, and a collection the request
// started, which outlives a request that abandons it.
type slot struct {
	s       *Server
	holders atomic.Int32
}

// hold adds a holder.
func (sl *slot) hold() { sl.holders.Add(1) }

// release drops a holder; the last one hands the token back.
func (sl *slot) release() {
	if sl.holders.Add(-1) == 0 {
		sl.s.inflight.Add(-1)
		<-sl.s.slots
	}
}

// admit acquires a worker slot under the request's deadline. The queue is
// strictly bounded: beyond QueueDepth waiting requests the caller is shed
// with 429 immediately (admitting it could only burn its deadline in
// line), and a deadline that expires while queued answers 504.
// On success the request holds the returned slot and must release it
// exactly once.
func (s *Server) admit(ctx context.Context, w http.ResponseWriter) (*slot, bool) {
	select {
	case s.slots <- struct{}{}:
	default:
		// No free worker: queue if the bounded queue has room.
		if s.queued.Add(1) > int64(s.cfg.QueueDepth) {
			s.queued.Add(-1)
			s.shed.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "overloaded",
				"admission queue full; shed (retry with backoff)")
			return nil, false
		}
		select {
		case s.slots <- struct{}{}:
			s.queued.Add(-1)
		case <-ctx.Done():
			s.queued.Add(-1)
			s.deadlineHit.Add(1)
			writeError(w, http.StatusGatewayTimeout, "deadline",
				"deadline expired while queued for a worker")
			return nil, false
		}
	}
	s.inflight.Add(1)
	sl := &slot{s: s}
	sl.hold()
	if s.hookAdmitted != nil {
		// The hook stands in for the analysis pipeline, so it can panic
		// like one; a panic past this point must hand the slot back or the
		// worker leaks for the life of the process.
		defer func() {
			if r := recover(); r != nil {
				sl.release()
				panic(r)
			}
		}()
		s.hookAdmitted()
	}
	return sl, true
}

// collectCostGuess seeds the collection-cost estimate before any
// collection has run. The estimate is an EWMA of observed collection
// times and drives the full-vs-static choice.
const collectCostGuess = 300 * time.Millisecond

// collectCost returns the smoothed observed collection duration.
func (s *Server) collectCost() time.Duration {
	return time.Duration(math.Float64frombits(s.costEWMA.Load()) * float64(time.Second))
}

// observeCollectCost folds one observed collection duration into the
// EWMA (α = 0.3; racing updates may drop an observation, which only
// slows convergence of an estimate that is advisory anyway).
func (s *Server) observeCollectCost(d time.Duration) {
	const alpha = 0.3
	old := math.Float64frombits(s.costEWMA.Load())
	next := (1-alpha)*old + alpha*d.Seconds()
	s.costEWMA.Store(math.Float64bits(next))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Liveness: the process is up and serving. Panics are reported (the
	// smoke test asserts zero) but do not turn health red — a recovered
	// panic is exactly what recovery is for.
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"panics": s.panics.Load(),
	})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "draining",
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ready",
		"inflight": s.inflight.Load(),
		"queued":   s.queued.Load(),
		"workers":  s.cfg.Workers,
		"queue":    s.cfg.QueueDepth,
	})
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"stats":               s.Stats(),
		"inflight":            s.inflight.Load(),
		"queued":              s.queued.Load(),
		"draining":            s.draining.Load(),
		"collect_cost_ms":     float64(s.collectCost()) / float64(time.Millisecond),
		"workers":             s.cfg.Workers,
		"queue_depth":         s.cfg.QueueDepth,
		"default_deadline_ms": s.cfg.DefaultDeadline.Milliseconds(),
	})
}
