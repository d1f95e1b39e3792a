// Package faults injects measurement faults into the analysis inputs —
// the sample trace, the PBO profile, and the field mapping file — so the
// pipeline's graceful-degradation behaviour can be exercised and measured.
//
// The paper's CycleLoss side rests on PMU measurement it admits is
// imperfect: §4.2 notes the ITC is synchronized only to "within a few
// ticks", that samples are lost on heavily loaded machines, and that the
// sampling frequency is capped; §4.3 argues the concurrency data is stable
// enough to use anyway. The injectors here model those failure modes past
// the point the paper measured — unbounded per-CPU clock drift, bursty
// sample loss, CPU misattribution, duplicated and reordered samples,
// truncated traces, stale FMF lines, corrupted profile counts — each
// deterministic in a seed and parameterized by a severity in [0, 1].
//
// Severity 0 is always the identity: applying a zero-severity spec returns
// the input unchanged, so a severity sweep's first point reproduces the
// clean pipeline exactly.
package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"structlayout/internal/fieldmap"
	"structlayout/internal/ir"
	"structlayout/internal/profile"
	"structlayout/internal/sampling"
)

// Kind names one injector.
type Kind string

const (
	// Drift applies unbounded per-CPU clock skew: a fixed offset plus a
	// rate error, both growing with severity far beyond the paper's "few
	// ticks".
	Drift Kind = "drift"
	// Loss drops samples in bursts (two-state Markov model), the way a
	// loaded collection machine loses them.
	Loss Kind = "loss"
	// Misattr reassigns samples to a uniformly random CPU.
	Misattr Kind = "misattr"
	// Dup duplicates samples, as a retransmitting collector would.
	Dup Kind = "dup"
	// Reorder shuffles samples within a bounded window.
	Reorder Kind = "reorder"
	// Truncate cuts off the trailing part of the trace.
	Truncate Kind = "truncate"
	// FMFDrop removes lines from the field mapping file (stale FMF).
	FMFDrop Kind = "fmfdrop"
	// ProfCorrupt corrupts profile counts: zeroed, wildly scaled, or (at
	// high severity) negated.
	ProfCorrupt Kind = "profcorrupt"
)

// Kinds lists every injector in canonical order.
var Kinds = []Kind{Drift, Loss, Misattr, Dup, Reorder, Truncate, FMFDrop, ProfCorrupt}

// Spec is a composed fault configuration: per-kind severities plus the
// seed making every injection deterministic. A nil *Spec injects nothing.
type Spec struct {
	// Seed drives all injector randomness.
	Seed int64
	// Severity maps each active kind to its severity in [0, 1]. Absent or
	// zero-severity kinds inject nothing.
	Severity map[Kind]float64
}

// New returns an empty (identity) spec with the given seed.
func New(seed int64) *Spec {
	return &Spec{Seed: seed, Severity: make(map[Kind]float64)}
}

// ParseSpec parses the injector grammar: a comma-separated list of
// `kind=severity` terms with optional `seed=N`, e.g.
//
//	drift=0.5,loss=0.3,seed=7
//
// `all=S` sets every kind to severity S. The literal "none" (or an empty
// string) is the identity spec. Severities must lie in [0, 1].
func ParseSpec(s string) (*Spec, error) {
	spec := New(1)
	s = strings.TrimSpace(s)
	if s == "" || s == "none" {
		return spec, nil
	}
	for _, term := range strings.Split(s, ",") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		eq := strings.IndexByte(term, '=')
		if eq < 0 {
			return nil, fmt.Errorf("faults: term %q: want kind=severity", term)
		}
		key, val := strings.TrimSpace(term[:eq]), strings.TrimSpace(term[eq+1:])
		if key == "seed" {
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad seed %q", val)
			}
			spec.Seed = n
			continue
		}
		sev, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("faults: term %q: bad severity %q", term, val)
		}
		if !(sev >= 0 && sev <= 1) { // NaN fails both compares
			return nil, fmt.Errorf("faults: term %q: severity %v out of [0,1]", term, sev)
		}
		if key == "all" {
			for _, k := range Kinds {
				spec.Severity[k] = sev
			}
			continue
		}
		if !validKind(Kind(key)) {
			return nil, fmt.Errorf("faults: unknown kind %q (want %s, all or seed)", key, kindList())
		}
		spec.Severity[Kind(key)] = sev
	}
	return spec, nil
}

func validKind(k Kind) bool {
	for _, known := range Kinds {
		if k == known {
			return true
		}
	}
	return false
}

func kindList() string {
	names := make([]string, len(Kinds))
	for i, k := range Kinds {
		names[i] = string(k)
	}
	return strings.Join(names, "/")
}

// String renders the spec in canonical (re-parseable) form.
func (s *Spec) String() string {
	var terms []string
	for _, k := range Kinds {
		if sev := s.sev(k); sev > 0 {
			terms = append(terms, fmt.Sprintf("%s=%.3g", k, sev))
		}
	}
	if len(terms) == 0 {
		return "none"
	}
	terms = append(terms, fmt.Sprintf("seed=%d", s.Seed))
	return strings.Join(terms, ",")
}

// IsZero reports whether the spec injects nothing.
func (s *Spec) IsZero() bool {
	for _, k := range Kinds {
		if s.sev(k) > 0 {
			return false
		}
	}
	return true
}

// Scale returns a copy with every severity multiplied by f (clamped to
// [0, 1]). Scaling by 0 yields the identity spec; sweeps use this to walk
// one shape of composed faults through increasing severity.
func (s *Spec) Scale(f float64) *Spec {
	out := New(s.Seed)
	for k, sev := range s.Severity {
		v := sev * f
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		if v > 0 {
			out.Severity[k] = v
		}
	}
	return out
}

// rng returns the injector-private random stream for one kind. Each kind
// owns a stream so severities compose independently: changing one kind's
// severity never perturbs another kind's decisions.
func (s *Spec) rng(k Kind) *rand.Rand {
	idx := int64(0)
	for i, known := range Kinds {
		if k == known {
			idx = int64(i)
		}
	}
	return rand.New(rand.NewSource(s.Seed*1_000_003 + idx*0x9E3779B9 + 7))
}

// sev returns the clamped severity of a kind, 0 for a nil spec.
func (s *Spec) sev(k Kind) float64 {
	if s == nil {
		return 0
	}
	v := s.Severity[k]
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// ApplyTrace returns a faulted copy of the trace. The input is never
// mutated. Injector order is fixed: drift, misattribution, duplication,
// loss, reordering, truncation — the order a real corruption stack would
// compose in (clock skew happens at collection, truncation at storage).
func (s *Spec) ApplyTrace(t *sampling.Trace) *sampling.Trace {
	if t == nil || s.IsZero() {
		return t
	}
	out := &sampling.Trace{
		Samples:        append([]sampling.Sample(nil), t.Samples...),
		IntervalCycles: t.IntervalCycles,
		NumCPUs:        t.NumCPUs,
	}
	s.injectDrift(out)
	s.injectMisattr(out)
	out.Samples = s.injectDup(out.Samples)
	out.Samples = s.injectLoss(out.Samples)
	s.injectReorder(out.Samples)
	out.Samples = s.injectTruncate(out.Samples)
	return out
}

// injectDrift applies a per-CPU offset plus rate error. At severity 1 the
// offset reaches ±20 sampling intervals and the rate error ±20% — far past
// the "few ticks" the paper's ITC synchronization guarantees, enough to
// misalign concurrency slices across CPUs.
func (s *Spec) injectDrift(t *sampling.Trace) {
	sev := s.sev(Drift)
	if sev == 0 || t.NumCPUs <= 0 {
		return
	}
	rng := s.rng(Drift)
	offset := make([]float64, t.NumCPUs)
	rate := make([]float64, t.NumCPUs)
	for cpu := range offset {
		offset[cpu] = (2*rng.Float64() - 1) * sev * 20 * float64(t.IntervalCycles)
		rate[cpu] = (2*rng.Float64() - 1) * sev * 0.2
	}
	for i, smp := range t.Samples {
		skewed := float64(smp.ITC) + offset[smp.CPU] + rate[smp.CPU]*float64(smp.ITC)
		t.Samples[i].ITC = int64(skewed)
	}
}

// injectMisattr reassigns each sample, with probability severity, to a
// uniformly random CPU.
func (s *Spec) injectMisattr(t *sampling.Trace) {
	sev := s.sev(Misattr)
	if sev == 0 || t.NumCPUs <= 0 {
		return
	}
	rng := s.rng(Misattr)
	for i := range t.Samples {
		if rng.Float64() < sev {
			t.Samples[i].CPU = rng.Intn(t.NumCPUs)
		}
	}
}

// injectDup duplicates each sample with probability severity/2 (a fully
// duplicated trace doubles counts without adding information, so even
// severity 1 duplicates only half the samples).
func (s *Spec) injectDup(samples []sampling.Sample) []sampling.Sample {
	sev := s.sev(Dup)
	if sev == 0 {
		return samples
	}
	rng := s.rng(Dup)
	out := make([]sampling.Sample, 0, len(samples))
	for _, smp := range samples {
		out = append(out, smp)
		if rng.Float64() < sev/2 {
			out = append(out, smp)
		}
	}
	return out
}

// injectLoss drops samples in bursts: a two-state Markov chain whose
// stationary drop fraction equals the severity (capped at 0.95) and whose
// bursts last ~20 samples, the shape of buffer-overflow loss on a loaded
// collection machine.
func (s *Spec) injectLoss(samples []sampling.Sample) []sampling.Sample {
	sev := s.sev(Loss)
	if sev == 0 {
		return samples
	}
	drop := sev
	if drop > 0.95 {
		drop = 0.95
	}
	const meanBurst = 20.0
	pExit := 1.0 / meanBurst
	pEnter := drop / ((1 - drop) * meanBurst)
	if pEnter > 1 {
		pEnter = 1
	}
	rng := s.rng(Loss)
	out := make([]sampling.Sample, 0, len(samples))
	dropping := false
	for _, smp := range samples {
		if dropping {
			if rng.Float64() < pExit {
				dropping = false
			}
		} else if rng.Float64() < pEnter {
			dropping = true
		}
		if !dropping {
			out = append(out, smp)
		}
	}
	return out
}

// injectReorder performs severity-proportional swaps of samples within a
// 64-entry window, modelling out-of-order delivery from per-CPU buffers.
func (s *Spec) injectReorder(samples []sampling.Sample) {
	sev := s.sev(Reorder)
	if sev == 0 || len(samples) < 2 {
		return
	}
	rng := s.rng(Reorder)
	swaps := int(sev * float64(len(samples)) / 2)
	for n := 0; n < swaps; n++ {
		i := rng.Intn(len(samples))
		lo := i - 64
		if lo < 0 {
			lo = 0
		}
		j := lo + rng.Intn(i-lo+1)
		samples[i], samples[j] = samples[j], samples[i]
	}
}

// injectTruncate keeps the leading (1 - 0.9*severity) fraction of the
// samples: even severity 1 leaves a 10% stub, the shape of a collection
// run killed early.
func (s *Spec) injectTruncate(samples []sampling.Sample) []sampling.Sample {
	sev := s.sev(Truncate)
	if sev == 0 {
		return samples
	}
	keep := int(float64(len(samples))*(1-0.9*sev) + 0.5)
	if keep < 0 {
		keep = 0
	}
	return samples[:keep]
}

// ApplyProfile returns a faulted copy of the profile; the input is never
// mutated. With probability severity each block count is corrupted:
// zeroed, scaled by up to 4x, or (in one corruption out of five) negated —
// the last being structurally invalid input the pipeline must sanitize.
func (s *Spec) ApplyProfile(pf *profile.Profile) *profile.Profile {
	sev := s.sev(ProfCorrupt)
	if pf == nil || sev == 0 {
		return pf
	}
	out := &profile.Profile{
		ProgramName: pf.ProgramName,
		Blocks:      append([]float64(nil), pf.Blocks...),
		LoopIters:   append([]float64(nil), pf.LoopIters...),
		LoopEntries: append([]float64(nil), pf.LoopEntries...),
	}
	rng := s.rng(ProfCorrupt)
	corrupt := func(v float64) float64 {
		switch rng.Intn(5) {
		case 0:
			return 0
		case 1:
			return -v
		default:
			return v * rng.Float64() * 4
		}
	}
	for i, v := range out.Blocks {
		if rng.Float64() < sev {
			out.Blocks[i] = corrupt(v)
		}
	}
	for i, v := range out.LoopIters {
		if rng.Float64() < sev {
			out.LoopIters[i] = corrupt(v)
		}
	}
	return out
}

// ApplyFMF returns a faulted copy of the field mapping file with a
// severity-proportional fraction of its lines missing (a stale FMF from an
// older build of the program). The input is never mutated.
func (s *Spec) ApplyFMF(f *fieldmap.File, p *ir.Program) *fieldmap.File {
	sev := s.sev(FMFDrop)
	if f == nil || sev == 0 {
		return f
	}
	// Decide drops over a deterministically ordered line list: map
	// iteration order must not leak into the injection.
	lines := make([]ir.SourceLine, 0, len(f.Lines))
	for loc := range f.Lines {
		lines = append(lines, loc)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i].Less(lines[j]) })
	rng := s.rng(FMFDrop)
	dropped := make(map[ir.SourceLine]bool)
	for _, loc := range lines {
		if rng.Float64() < sev {
			dropped[loc] = true
		}
	}
	return f.Filter(p, func(loc ir.SourceLine) bool { return !dropped[loc] })
}
