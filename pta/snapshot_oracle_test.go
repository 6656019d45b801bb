package pta

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"wlpa/internal/cast"
	"wlpa/internal/workload"
)

// referenceProcs is the exhaustive answer-table builder: one
// independent pointsToAtNode lookup per (symbol, depth, node), the same
// lookup the live Result.PointsToAt makes. It is the oracle for the
// dominator-order sweep.
func referenceProcs(t *testing.T, r *Result) ([]ProcSnap, [][]string) {
	t.Helper()
	pool := newAnswerPool()
	var procs []ProcSnap
	for _, proc := range r.Procedures() {
		cproc := r.an.Proc(proc)
		if cproc == nil {
			t.Fatalf("reference: procedure %q has no flow graph", proc)
		}
		ps := ProcSnap{Name: proc}
		for _, nd := range cproc.Nodes {
			ps.Lines = append(ps.Lines, nd.Pos.Line)
			ps.Cols = append(ps.Cols, nd.Pos.Col)
		}
		var syms []*cast.Symbol
		seen := map[string]bool{}
		addSym := func(sym *cast.Symbol) {
			if sym != nil && !seen[sym.Name] {
				seen[sym.Name] = true
				syms = append(syms, sym)
			}
		}
		for _, l := range cproc.Locals {
			addSym(l)
		}
		for _, p := range cproc.Fn.Params {
			addSym(p.Sym)
		}
		for _, g := range r.prog.Globals {
			addSym(g)
		}
		for _, sym := range syms {
			vs := VarSnap{Name: sym.Name}
			for d := 0; d <= MaxQueryDepth; d++ {
				ids := make([]int, len(cproc.Nodes))
				constant := true
				for i, nd := range cproc.Nodes {
					ids[i] = pool.intern(r.pointsToAtNode(proc, sym, d, nd))
					if ids[i] != ids[0] {
						constant = false
					}
				}
				if constant {
					ids = ids[:1]
				}
				vs.Depths[d] = ids
			}
			ps.Vars = append(ps.Vars, vs)
		}
		procs = append(procs, ps)
	}
	return procs, pool.list
}

// oracleInput is one program the builder oracle covers. diags adds
// the run with embedded diagnostics; the checkers cost most of the
// test's time on generated programs, so only the first ten of each
// size get it. A non-empty base makes the result a warm-edit graft of
// src onto a sequential analysis of base.
type oracleInput struct {
	name, src string
	diags     bool
	base      string
}

// analyze runs the input at the given worker count.
func (in oracleInput) analyze(workers int) (*Result, error) {
	opts := &Options{Workers: workers}
	if in.base == "" {
		return AnalyzeSource(in.name+".c", in.src, opts)
	}
	base, err := AnalyzeSource(in.name+".c", in.base, &Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	bl, err := NewBaseline(base, &Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	return AnalyzeIncremental(bl, Source{in.name + ".c": in.src}, in.name+".c", opts)
}

// strongBarrierSrc strongly updates s.f at the node assigning &y, after
// a weak store through the strided location pp[i] overlapping it. The
// strong update bounds what the nodes below that node see of pp[i]'s
// record, though not what the node itself sees: s answers {x, y} at
// that node and {y} from the next one on.
const strongBarrierSrc = `
int x, y, z;
struct S { int *f; int *g; } s;
int *q;
int main(void) {
	int i;
	int **pp;
	i = 1;
	pp = &s.f;
	pp[i] = &x;
	s.f = &y;
	q = &z;
	return 0;
}
`

// strongBarrierCallSrc is strongBarrierSrc with a call to an empty g
// right after the strong update: the call node holds no record, yet
// *pp answers {y} there, not the {x, y} of the node above it.
const strongBarrierCallSrc = `
int x, y, z;
struct S { int *f; int *g; } s;
int *q;
void g(void) { }
int main(void) {
	int i;
	int **pp;
	i = 1;
	pp = &s.f;
	pp[i] = &x;
	s.f = &y;
	g();
	q = &z;
	return 0;
}
`

func oracleInputs(short bool) []oracleInput {
	in := []oracleInput{
		{name: "strongbarrier", src: strongBarrierSrc, diags: true},
		{name: "strongbarriercall", src: strongBarrierCallSrc, diags: true},
		// No variable to tabulate: the empty table encodes as null.
		{name: "novars", src: "void f(int) { }\nint main(void) { f(1); return 0; }\n", diags: true},
	}
	for _, b := range workload.Suite() {
		in = append(in, oracleInput{name: b.Name, src: b.Source, diags: true})
		if edited, ok := workload.TweakNthStatement(b.Source, 5); ok {
			in = append(in, oracleInput{name: b.Name + "_graft", src: edited, base: b.Source})
		}
	}
	for _, s := range workload.FanOutShapes() {
		in = append(in, oracleInput{name: s.Name, src: s.Source(), diags: true})
	}
	fixtures := workload.BugFixtures()
	var names []string
	for name := range fixtures {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		in = append(in, oracleInput{name: "bug_" + name, src: fixtures[name], diags: true})
	}
	n := 100
	if short {
		n = 10
	}
	for _, size := range [][2]int{{3, 4}, {8, 10}} {
		for seed := int64(1); seed <= int64(n); seed++ {
			src := workload.Generate(workload.GenConfig{
				Seed: seed, NumGlobals: 4, NumPtrs: 4,
				NumFuncs: size[0], StmtsPerFunc: size[1],
				Features: workload.AllFeatures(),
			})
			in = append(in, oracleInput{name: fmt.Sprintf("gen%dx%d_%d", size[0], size[1], seed), src: src, diags: seed <= 10})
		}
	}
	return in
}

// TestSnapshotMatchesExhaustiveBuilder is the byte-identity oracle for
// the answer table: over the suite and warm-edit grafts of it, the
// fan-out shapes, the bug fixtures and generated programs, at one and
// two workers, the encoded
// snapshot equals the one whose Procs and Answers come from
// referenceProcs, without and (see oracleInput) with embedded
// diagnostics. Unlike
// TestSnapshotRoundTrip it compares every node, not only the ones a
// line query reaches.
func TestSnapshotMatchesExhaustiveBuilder(t *testing.T) {
	inputs := oracleInputs(testing.Short())
	for _, workers := range []int{1, 2} {
		for _, in := range inputs {
			in := in
			t.Run(fmt.Sprintf("w%d/%s", workers, in.name), func(t *testing.T) {
				t.Parallel()
				r, err := in.analyze(workers)
				if err != nil {
					t.Fatalf("analyze: %v", err)
				}
				refProcs, refAnswers := referenceProcs(t, r)
				for _, diags := range []bool{false, true} {
					if diags && !in.diags {
						continue
					}
					snap, err := r.Snapshot(&SnapshotOptions{Fingerprint: "fp", Diagnostics: diags})
					if err != nil {
						t.Fatalf("Snapshot: %v", err)
					}
					ref := *snap
					ref.Procs, ref.Answers = refProcs, refAnswers
					got, err := snap.Encode()
					if err != nil {
						t.Fatal(err)
					}
					want, err := ref.Encode()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("diagnostics=%v: snapshot bytes differ from the exhaustive builder's (%d vs %d bytes); %s",
							diags, len(got), len(want), firstProcDiff(snap, &ref))
					}
				}
			})
		}
	}
}

// firstProcDiff names the first answer that differs between two
// snapshots of one program.
func firstProcDiff(got, want *Snapshot) string {
	for i := range got.Procs {
		g, w := &got.Procs[i], &want.Procs[i]
		for v := range g.Vars {
			for d := range g.Vars[v].Depths {
				gi, wi := g.Vars[v].Depths[d], w.Vars[v].Depths[d]
				if fmt.Sprint(gi) != fmt.Sprint(wi) {
					return fmt.Sprintf("%s %s depth %d: %v vs %v", g.Name, g.Vars[v].Name, d, gi, wi)
				}
			}
		}
	}
	if len(got.Answers) != len(want.Answers) {
		return fmt.Sprintf("answer pools of %d vs %d answers", len(got.Answers), len(want.Answers))
	}
	return "every answer id agrees; the tables differ in layout"
}
