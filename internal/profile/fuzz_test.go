package profile_test

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"structlayout/internal/core"
	"structlayout/internal/driver"
	"structlayout/internal/faults"
	"structlayout/internal/irtext"
	"structlayout/internal/layout"
	"structlayout/internal/machine"
	"structlayout/internal/profile"
	"structlayout/internal/sampling"
)

// FuzzProfileJSON drives hostile bytes through everything a supplied
// profile reaches: ReadJSON (layoutd's `profile` field, memo collection
// replays, layouttool -profile), a WriteJSON round trip, and an analysis
// of webserver.slp with the options layoutd's given rung uses, then a
// suggestion for every struct. Nothing may panic, an accepted profile has
// the program's shape and survives the round trip unchanged, and every
// suggested layout is valid.
func FuzzProfileJSON(f *testing.F) {
	src, err := os.ReadFile("../../examples/dslprogram/webserver.slp")
	if err != nil {
		f.Fatal(err)
	}
	file, err := irtext.Parse(string(src))
	if err != nil {
		f.Fatal(err)
	}
	res, err := driver.Collect(file, driver.Config{Topo: machine.Bus4(), Seed: 1}, nil)
	if err != nil {
		f.Fatal(err)
	}
	var traceJSON bytes.Buffer
	if err := res.Trace.WriteJSON(&traceJSON); err != nil {
		f.Fatal(err)
	}
	spec, err := faults.ParseSpec("")
	if err != nil {
		f.Fatal(err)
	}
	seed := func(edit func(pf *profile.Profile)) []byte {
		pf := *res.Profile
		pf.Blocks = append([]float64(nil), pf.Blocks...)
		pf.LoopIters = append([]float64(nil), pf.LoopIters...)
		pf.LoopEntries = append([]float64(nil), pf.LoopEntries...)
		edit(&pf)
		raw, err := json.Marshal(&pf)
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	each := func(pf *profile.Profile, fn func(float64) float64) {
		for _, counts := range [][]float64{pf.Blocks, pf.LoopIters, pf.LoopEntries} {
			for i, v := range counts {
				counts[i] = fn(v)
			}
		}
	}
	var collected bytes.Buffer
	if err := res.Profile.WriteJSON(&collected); err != nil {
		f.Fatal(err)
	}
	f.Add(collected.Bytes())
	f.Add([]byte(`{}`))
	f.Add(seed(func(pf *profile.Profile) { pf.ProgramName = "other" }))
	f.Add(seed(func(pf *profile.Profile) { pf.Blocks = pf.Blocks[:len(pf.Blocks)-1] }))
	f.Add(seed(func(pf *profile.Profile) { each(pf, func(v float64) float64 { return -v }) }))
	f.Add(seed(func(pf *profile.Profile) { each(pf, func(float64) float64 { return 1e308 }) }))
	f.Fuzz(func(t *testing.T, data []byte) {
		pf, err := profile.ReadJSON(bytes.NewReader(data), file.Prog)
		if err != nil {
			return
		}
		if len(pf.Blocks) != file.Prog.NumBlocks() || len(pf.LoopIters) != file.Prog.NumLoops() || len(pf.LoopEntries) != file.Prog.NumLoops() {
			t.Fatalf("accepted a profile of %d blocks and %d/%d loops for %d blocks and %d loops",
				len(pf.Blocks), len(pf.LoopIters), len(pf.LoopEntries), file.Prog.NumBlocks(), file.Prog.NumLoops())
		}
		var buf bytes.Buffer
		if err := pf.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON of an accepted profile: %v", err)
		}
		again, err := profile.ReadJSON(&buf, file.Prog)
		if err != nil {
			t.Fatalf("ReadJSON of WriteJSON: %v", err)
		}
		if !reflect.DeepEqual(pf, again) {
			t.Fatalf("round trip changed the profile: %+v became %+v", pf, again)
		}
		trace, err := sampling.ReadJSON(bytes.NewReader(traceJSON.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		a, err := core.NewAnalysis(file.Prog, pf, trace, driver.AnalysisOptions(file, 128, 0, spec, false))
		if err != nil {
			t.Fatalf("analysis of an accepted profile: %v", err)
		}
		for _, st := range file.Prog.Structs {
			orig, err := layout.Original(st, 128)
			if err != nil {
				t.Fatal(err)
			}
			sugg, err := a.Suggest(st.Name, orig)
			if err != nil {
				t.Fatalf("suggesting %s: %v", st.Name, err)
			}
			if err := sugg.Auto.Validate(); err != nil {
				t.Fatalf("suggested %s layout invalid: %v", st.Name, err)
			}
		}
	})
}
