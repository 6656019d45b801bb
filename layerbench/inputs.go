package main

import (
	"fmt"
	"io"
	"math/rand"
	"sort"

	"wlpa/internal/workload"
	"wlpa/pta"
)

// Generated programs use every generator feature (1.5 PTFs per
// procedure on average, against the suite's 1.0–1.4). Their size keeps
// each one's analysis plus checkers below the largest suite program's
// (compiler); at 8 functions × 10 statements some seeds cost 3–4× more.
// Two per run keep the seed's draw from moving the latency
// percentiles more than the host does.
const (
	genFuncs = 3
	genStmts = 4
	genCount = 2 // generated programs per batch-check / serve-cold run
)

// input is one program under test. versions[0] is the source as drawn;
// serve-edit appends each chained edit.
type input struct {
	name     string
	entry    string // file name sent as the entry
	class    string // suite, bug, fanout or gen
	why      string // one line: why this input is in the workload
	wantBug  string // bug fixtures: the check that must flag it
	versions []string

	// serve-edit only: the seeded query sites of the program.
	sites []pta.QuerySite
}

// seededBugs maps each bug_*.c fixture to the check its seeded defect
// must trigger (the same table as internal/check's fixture test).
var seededBugs = map[string]string{
	"nullderef":    "nullderef",
	"uninit":       "uninitderef",
	"useafterfree": "useafterfree",
	"doublefree":   "doublefree",
	"localescape":  "localescape",
	"badcall":      "badcall",
	"leak":         "leak",
	"writero":      "writero",
	"typestate":    "useafterclose",
	"doubleclose":  "doubleclose",
	"fileleak":     "fileleak",
	"taint":        "taintflow",
}

func suiteInputs() []*input {
	var out []*input
	for _, b := range workload.Suite() {
		out = append(out, &input{
			name: b.Name, entry: b.Name + ".c", class: "suite", versions: []string{b.Source},
			why: fmt.Sprintf("paper Table 2 stand-in, %d lines", workload.CountLines(b.Source)),
		})
	}
	return out
}

func bugInputs() ([]*input, error) {
	fixtures := workload.BugFixtures()
	names := make([]string, 0, len(seededBugs))
	for n := range seededBugs {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []*input
	for _, n := range names {
		src, ok := fixtures[n]
		if !ok {
			return nil, fmt.Errorf("bug fixture bug_%s.c missing", n)
		}
		out = append(out, &input{
			name: "bug_" + n, entry: "bug_" + n + ".c", class: "bug", wantBug: seededBugs[n],
			versions: []string{src}, why: "seeded defect that check " + seededBugs[n] + " must flag",
		})
	}
	return out, nil
}

func fanoutInputs() []*input {
	var out []*input
	for _, s := range workload.FanOutShapes() {
		out = append(out, &input{
			name: s.Name, entry: s.Name + ".c", class: "fanout", versions: []string{s.Source()},
			why: fmt.Sprintf("%d independent call cones of depth %d: forms parallel scheduler epochs (serve-fanout)", s.Breadth, s.Depth),
		})
	}
	return out
}

// genInputs draws genCount generated programs from rng.
func genInputs(rng *rand.Rand) []*input {
	var out []*input
	for i := 0; i < genCount; i++ {
		gseed := rng.Int63n(1 << 31)
		src := workload.Generate(workload.GenConfig{
			Seed: gseed, NumGlobals: 4, NumPtrs: 4, NumFuncs: genFuncs, StmtsPerFunc: genStmts,
			Features: workload.AllFeatures(),
		})
		name := fmt.Sprintf("gen%d", i)
		out = append(out, &input{
			name: name, entry: name + ".c", class: "gen", versions: []string{src},
			why: fmt.Sprintf("seeded draw: generator seed %d, %d funcs x %d stmts, all features (context-sensitive PTFs)", gseed, genFuncs, genStmts),
		})
	}
	return out
}

func logInputs(w io.Writer, ins []*input) {
	for _, in := range ins {
		fmt.Fprintf(w, "# input %-12s %-6s %s\n", in.name, in.class, in.why)
	}
}
