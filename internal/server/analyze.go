package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"sort"
	"time"

	"structlayout/internal/core"
	"structlayout/internal/diag"
	"structlayout/internal/driver"
	"structlayout/internal/faults"
	"structlayout/internal/irtext"
	"structlayout/internal/layout"
	"structlayout/internal/machine"
	"structlayout/internal/profile"
	"structlayout/internal/quality"
	"structlayout/internal/sampling"
	"structlayout/internal/staticshare"
)

// Ladder rungs, most to least evidence. Every /v1/analyze response names
// the rung it was served from.
const (
	// LadderFull: a fresh sampled collection ran inside the deadline.
	LadderFull = "full"
	// LadderReplay: the collection replayed from the content-addressed
	// cache (an identical program/machine/seed was analyzed before).
	LadderReplay = "replay"
	// LadderGiven: the client supplied its own profile/trace artifacts.
	LadderGiven = "given"
	// LadderStatic: no budget for measurement — layout from the static
	// sharing prior alone, always labeled DEGRADED.
	LadderStatic = "static"
)

// maxBodyBytes bounds request bodies; a DSL program is text, so 4 MiB is
// generous.
const maxBodyBytes = 4 << 20

// AnalyzeRequest is the /v1/analyze body.
type AnalyzeRequest struct {
	// Program is the DSL source (docs/DSL.md).
	Program string `json:"program"`
	// Struct names one struct to lay out; empty means every struct.
	Struct string `json:"struct,omitempty"`
	// Machine is the collection machine (bus4, way16, superdome128, ...).
	Machine string `json:"machine,omitempty"`
	// Mode is auto, best, or both (default auto).
	Mode string `json:"mode,omitempty"`
	// Seed drives the simulated collection (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Inject is a measurement-fault spec (docs/FAULTS.md) applied to the
	// collection, e.g. "loss=0.3,seed=7".
	Inject string `json:"inject,omitempty"`
	// DeadlineMS is the request deadline; 0 means the server default.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// MeasureRuns > 0 additionally measures each suggested layout over
	// this many simulated runs (expensive; needs deadline headroom).
	MeasureRuns int `json:"measure_runs,omitempty"`
	// Profile/Trace, when set, are client-supplied artifacts in the
	// canonical JSON encodings; the server analyzes them instead of
	// collecting (the LadderGiven rung).
	Profile json.RawMessage `json:"profile,omitempty"`
	Trace   json.RawMessage `json:"trace,omitempty"`
	// Strict makes degraded measurement data an error instead of a
	// labeled degradation.
	Strict bool `json:"strict,omitempty"`
}

// FieldWire is one field placement in a layout, in memory order.
type FieldWire struct {
	Name   string `json:"name"`
	Offset int    `json:"offset"`
	Size   int    `json:"size"`
}

// LayoutWire is a layout in wire form.
type LayoutWire struct {
	Name     string      `json:"name"`
	Size     int         `json:"size"`
	LineSize int         `json:"line_size"`
	Fields   []FieldWire `json:"fields"`
}

// StructWire is one struct's layouts.
type StructWire struct {
	Struct string      `json:"struct"`
	Auto   *LayoutWire `json:"auto,omitempty"`
	Best   *LayoutWire `json:"best,omitempty"`
}

// QualityWire is the measurement-quality verdict of the response.
type QualityWire struct {
	Score   float64 `json:"score"`
	Verdict string  `json:"verdict"`
	Summary string  `json:"summary"`
}

// MeasureWire is the optional measurement table.
type MeasureWire struct {
	BaselineMean float64             `json:"baseline_mean"`
	Structs      []driver.StructEval `json:"structs"`
}

// AnalyzeResponse is the /v1/analyze result. Degradation is an output
// contract: a response is either this (labeled success, possibly
// degraded) or an explicit error status — never a silent partial.
type AnalyzeResponse struct {
	Program     string                `json:"program"`
	Machine     string                `json:"machine"`
	Ladder      string                `json:"ladder"`
	Degraded    bool                  `json:"degraded"`
	Quality     QualityWire           `json:"quality"`
	Structs     []StructWire          `json:"structs"`
	Lint        []staticshare.Finding `json:"lint"`
	Diagnostics []diag.Diagnostic     `json:"diagnostics"`
	Measure     *MeasureWire          `json:"measure,omitempty"`
	ElapsedMS   float64               `json:"elapsed_ms"`
}

// LintRequest is the /v1/lint body.
type LintRequest struct {
	Program string `json:"program"`
	// LineSize is the coherence-line size findings are computed for: a
	// positive power of two, or 0 for the default 128.
	LineSize int `json:"line_size,omitempty"`
}

// LintResponse is the /v1/lint result.
type LintResponse struct {
	Findings    []staticshare.Finding `json:"findings"`
	Count       int                   `json:"count"`
	MaxSeverity string                `json:"max_severity"`
}

// decodeBody reads a bounded JSON body.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method", "POST required")
		return false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "body", fmt.Sprintf("reading body: %v", err))
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		writeError(w, http.StatusBadRequest, "json", fmt.Sprintf("decoding body: %v", err))
		return false
	}
	return true
}

// deadlineFor clamps the request's deadline to the configured maximum.
func (s *Server) deadlineFor(ms int64) time.Duration {
	d := s.cfg.DefaultDeadline
	if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	return d
}

func (s *Server) handleLint(w http.ResponseWriter, r *http.Request) {
	var req LintRequest
	if !decodeBody(w, r, &req) {
		s.badRequest.Add(1)
		return
	}
	lineSize := req.LineSize
	if lineSize == 0 {
		lineSize = 128
	}
	if lineSize < 0 || lineSize&(lineSize-1) != 0 {
		s.badRequest.Add(1)
		writeError(w, http.StatusBadRequest, "bad-line-size",
			fmt.Sprintf("line size %d not a positive power of two", lineSize))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.deadlineFor(0))
	defer cancel()
	sl, ok := s.admit(ctx, w)
	if !ok {
		return
	}
	defer sl.release()
	file, err := irtext.Parse(req.Program)
	if err != nil {
		s.badRequest.Add(1)
		writeError(w, http.StatusBadRequest, "bad-program", err.Error())
		return
	}
	findings, _, err := staticshare.LintFile(file, lineSize)
	if err != nil {
		s.badRequest.Add(1)
		writeError(w, http.StatusBadRequest, "lint", err.Error())
		return
	}
	staticshare.Rank(findings)
	if findings == nil {
		findings = []staticshare.Finding{}
	}
	s.ok.Add(1)
	writeJSON(w, http.StatusOK, LintResponse{
		Findings:    findings,
		Count:       len(findings),
		MaxSeverity: staticshare.MaxSeverity(findings).String(),
	})
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req AnalyzeRequest
	if !decodeBody(w, r, &req) {
		s.badRequest.Add(1)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.deadlineFor(req.DeadlineMS))
	defer cancel()

	// Validate everything cheap before burning a worker slot on it.
	file, err := irtext.Parse(req.Program)
	if err != nil {
		s.badRequest.Add(1)
		writeError(w, http.StatusBadRequest, "bad-program", err.Error())
		return
	}
	machineName := req.Machine
	if machineName == "" {
		machineName = s.cfg.DefaultMachine
	}
	topo, err := machine.ByName(machineName)
	if err != nil {
		s.badRequest.Add(1)
		writeError(w, http.StatusBadRequest, "bad-machine", err.Error())
		return
	}
	if err := driver.ValidateThreads(file, topo); err != nil {
		s.badRequest.Add(1)
		writeError(w, http.StatusBadRequest, "bad-threads", err.Error())
		return
	}
	spec, err := faults.ParseSpec(req.Inject)
	if err != nil {
		s.badRequest.Add(1)
		writeError(w, http.StatusBadRequest, "bad-inject", err.Error())
		return
	}
	mode := req.Mode
	if mode == "" {
		mode = "auto"
	}
	if mode != "auto" && mode != "best" && mode != "both" {
		s.badRequest.Add(1)
		writeError(w, http.StatusBadRequest, "bad-mode", fmt.Sprintf("unknown mode %q (auto|best|both)", mode))
		return
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	var wantStructs []string
	if req.Struct != "" {
		if file.Prog.Struct(req.Struct) == nil {
			s.badRequest.Add(1)
			writeError(w, http.StatusBadRequest, "bad-struct",
				fmt.Sprintf("program %s has no struct %q", file.Prog.Name, req.Struct))
			return
		}
		wantStructs = []string{req.Struct}
	} else {
		for _, st := range file.Prog.Structs {
			wantStructs = append(wantStructs, st.Name)
		}
		sort.Strings(wantStructs)
	}

	sl, ok := s.admit(ctx, w)
	if !ok {
		return
	}
	defer sl.release()

	cfg := driver.Config{Topo: topo, Seed: seed, Inject: spec}
	lineSize := cfg.LineSize()

	// Pick the degradation rung and obtain artifacts.
	pf, trace, cycles, ladder, err := s.collectRung(ctx, sl, &req, file, cfg)
	if err != nil {
		if errors.Is(err, errCollectPanic) {
			writeError(w, http.StatusInternalServerError, "panic",
				"internal error in collection (diagnostic captured server-side)")
			return
		}
		if ctx.Err() != nil {
			s.deadlineHit.Add(1)
			writeError(w, http.StatusGatewayTimeout, "deadline", "deadline expired during collection")
			return
		}
		s.badRequest.Add(1)
		writeError(w, http.StatusBadRequest, "bad-artifacts", err.Error())
		return
	}

	analysis, err := core.NewAnalysis(file.Prog, pf, trace, driver.AnalysisOptions(file, lineSize, cycles, spec, req.Strict))
	if err != nil {
		if req.Strict {
			// Strict mode turns degraded measurements into refusals by
			// request; the data, not the request, was unprocessable.
			s.badRequest.Add(1)
			writeError(w, http.StatusUnprocessableEntity, "strict", err.Error())
			return
		}
		s.internalErrs.Add(1)
		s.logf("layoutd: analysis failed: %v", err)
		writeError(w, http.StatusInternalServerError, "internal", "analysis failed (diagnostic captured server-side)")
		return
	}
	if ladder == LadderStatic {
		// The bottom rung is correct but measured by nothing: label it so
		// no client mistakes it for an evidence-backed advisory.
		analysis.Diag.Add(diag.Degraded, "server", "deadline-degraded",
			"no deadline budget for measurement; static-prior-only layout (re-request with a longer deadline for measured evidence)")
	}

	// Layouts per struct, plus the auto variants measurement would need.
	resp := &AnalyzeResponse{
		Program: file.Prog.Name,
		Machine: topo.Name,
		Ladder:  ladder,
	}
	origLayouts := make(map[string]*layout.Layout, len(file.Prog.Structs))
	for _, st := range file.Prog.Structs {
		orig, oerr := layout.Original(st, lineSize)
		if oerr != nil {
			s.badRequest.Add(1)
			writeError(w, http.StatusBadRequest, "bad-struct", oerr.Error())
			return
		}
		origLayouts[st.Name] = orig
	}
	autos := make(map[string]*layout.Layout, len(wantStructs))
	for _, name := range wantStructs {
		sw := StructWire{Struct: name}
		if mode == "auto" || mode == "both" {
			sugg, serr := analysis.Suggest(name, origLayouts[name])
			if serr != nil {
				s.internalErrs.Add(1)
				writeError(w, http.StatusInternalServerError, "internal", serr.Error())
				return
			}
			autos[name] = sugg.Auto
			sw.Auto = layoutWire(sugg.Auto)
		}
		if mode == "best" || mode == "both" {
			best, _, berr := analysis.Best(name, origLayouts[name])
			if berr != nil {
				s.internalErrs.Add(1)
				writeError(w, http.StatusInternalServerError, "internal", berr.Error())
				return
			}
			sw.Best = layoutWire(best)
		}
		resp.Structs = append(resp.Structs, sw)
	}

	resp.Lint = analysis.Lint(origLayouts)
	if resp.Lint == nil {
		resp.Lint = []staticshare.Finding{}
	}

	// Optional measurement, only on rungs with budget for it; a deadline
	// that expires mid-measurement degrades the response (labeled, table
	// omitted) instead of failing it.
	if req.MeasureRuns > 0 && ladder != LadderStatic {
		if mode == "best" {
			for _, name := range wantStructs {
				if autos[name] == nil {
					sugg, serr := analysis.Suggest(name, origLayouts[name])
					if serr != nil {
						s.internalErrs.Add(1)
						writeError(w, http.StatusInternalServerError, "internal", serr.Error())
						return
					}
					autos[name] = sugg.Auto
				}
			}
		}
		ev, merr := driver.EvaluateCtx(ctx, file, cfg, nil, autos, req.MeasureRuns, analysis.Quality)
		if merr != nil {
			analysis.Diag.Add(diag.Degraded, "server", "measure-deadline",
				"measurement abandoned (%v); layouts delivered without measured speedups", merr)
		} else {
			resp.Measure = &MeasureWire{BaselineMean: ev.Baseline.Mean, Structs: ev.Structs}
		}
	}

	verdict := analysis.QualityVerdict()
	resp.Quality = QualityWire{
		Score:   analysis.Quality.Score,
		Verdict: verdict.String(),
		Summary: analysis.Quality.String(),
	}
	resp.Degraded = verdict == quality.Degraded
	resp.Diagnostics = analysis.Diag.Entries()
	resp.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)

	switch ladder {
	case LadderFull:
		s.ladderFull.Add(1)
	case LadderReplay:
		s.ladderReplay.Add(1)
	case LadderGiven:
		s.ladderGiven.Add(1)
	case LadderStatic:
		s.ladderStatic.Add(1)
	}
	if resp.Degraded {
		s.degraded.Add(1)
	}
	s.ok.Add(1)
	writeJSON(w, http.StatusOK, resp)
}

// errCollectPanic is what collectRung returns when the collection it ran
// panicked. The collection goroutine has already counted and logged it.
var errCollectPanic = errors.New("server: collection panicked")

// collectRung walks the degradation ladder for one request and returns
// the artifacts plus the rung that produced them:
//
//   - given: the client supplied artifacts; analyze those.
//   - replay: the collection is in the content-addressed cache; replaying
//     is nearly free, so even a tight deadline affords it.
//   - full: enough budget remains (per the smoothed cost estimate) to
//     simulate a fresh collection, holding StaticReserve back; if the
//     collection overruns the reserve boundary anyway, it is abandoned to
//     the background (it still warms the cache for the next request, and
//     holds the request's worker slot sl until it finishes) and the
//     request falls to the static rung.
//   - static: no measurement at all; the caller builds the analysis from
//     a static profile estimate and the static sharing prior.
//
// A nil profile return with nil error means the static rung.
func (s *Server) collectRung(ctx context.Context, sl *slot, req *AnalyzeRequest, file *irtext.File, cfg driver.Config) (*profile.Profile, *sampling.Trace, int64, string, error) {
	if len(req.Profile) > 0 {
		pf, err := profile.ReadJSON(bytes.NewReader(req.Profile), file.Prog)
		if err != nil {
			return nil, nil, 0, "", fmt.Errorf("decoding supplied profile: %w", err)
		}
		var trace *sampling.Trace
		if len(req.Trace) > 0 {
			trace, err = sampling.ReadJSON(bytes.NewReader(req.Trace))
			if err != nil {
				return nil, nil, 0, "", fmt.Errorf("decoding supplied trace: %w", err)
			}
		}
		return pf, trace, 0, LadderGiven, nil
	}
	if len(req.Trace) > 0 {
		return nil, nil, 0, "", fmt.Errorf("a supplied trace needs its matching profile")
	}
	if driver.CollectCacheReady(file, cfg) {
		pf, tr, cycles, err := driver.CollectCached(file, cfg)
		if err != nil {
			return nil, nil, 0, "", err
		}
		return pf, tr, cycles, LadderReplay, nil
	}
	deadline, ok := ctx.Deadline()
	budget := time.Duration(1<<62 - 1)
	if ok {
		budget = time.Until(deadline) - s.cfg.StaticReserve
	}
	if budget < s.collectCost() {
		return s.staticRung(file)
	}
	type out struct {
		pf     *profile.Profile
		tr     *sampling.Trace
		cycles int64
		err    error
	}
	ch := make(chan out, 1)
	started := time.Now()
	sl.hold()
	go func() {
		// Runs to completion even if abandoned: the result lands in the
		// shared cache, so the next identical request rides the replay
		// rung instead of timing out the same way. It holds the worker
		// slot until then, so abandoned collections never simulate
		// beyond the pool's size.
		defer sl.release()
		defer func() {
			// Outside the handler's guard a panic would end the process.
			// Count and log it here and hand it to the handler as a 500,
			// as parallel.Map hands a panic to its caller; a handler that
			// has already left drops it.
			if p := recover(); p != nil {
				s.panics.Add(1)
				s.logf("layoutd: panic in collection: %v\n%s", p, debug.Stack())
				ch <- out{err: errCollectPanic}
			}
		}()
		if s.hookCollect != nil {
			s.hookCollect()
		}
		pf, tr, cycles, err := driver.CollectCached(file, cfg)
		ch <- out{pf, tr, cycles, err}
	}()
	reserve := time.NewTimer(budget)
	defer reserve.Stop()
	select {
	case o := <-ch:
		if o.err != nil {
			return nil, nil, 0, "", o.err
		}
		s.observeCollectCost(time.Since(started))
		return o.pf, o.tr, o.cycles, LadderFull, nil
	case <-reserve.C:
		// Out of measurement budget: degrade, don't die. The abandoned
		// collection keeps warming the cache in the background.
		return s.staticRung(file)
	case <-ctx.Done():
		return nil, nil, 0, "", ctx.Err()
	}
}

// staticRung synthesizes the zero-measurement artifacts: a static profile
// estimate rooted at the declared thread procedures, no trace. The caller
// labels the analysis DEGRADED.
func (s *Server) staticRung(file *irtext.File) (*profile.Profile, *sampling.Trace, int64, string, error) {
	seen := make(map[string]bool)
	var entries []string
	for _, td := range file.Threads {
		if !seen[td.Proc] {
			seen[td.Proc] = true
			entries = append(entries, td.Proc)
		}
	}
	pf, err := profile.StaticEstimate(file.Prog, entries)
	if err != nil {
		return nil, nil, 0, "", err
	}
	return pf, nil, 0, LadderStatic, nil
}

// layoutWire converts a layout to wire form, fields in memory order.
func layoutWire(l *layout.Layout) *LayoutWire {
	w := &LayoutWire{Name: l.Name, Size: l.Size, LineSize: l.LineSize}
	for _, fi := range l.Order {
		w.Fields = append(w.Fields, FieldWire{
			Name:   l.Struct.Fields[fi].Name,
			Offset: l.Offsets[fi],
			Size:   l.Struct.Fields[fi].Size,
		})
	}
	return w
}
