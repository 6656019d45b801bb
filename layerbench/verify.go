package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"wlpa/internal/analysis"
	"wlpa/internal/cast"
	"wlpa/internal/interp"
	"wlpa/internal/memmod"
	"wlpa/internal/server"
	"wlpa/pta"
)

// cleanExempt are the checks that may report on a well-defined program
// (the difftest lattice's check-clean rung uses the same set).
var cleanExempt = map[string]bool{"leak": true, "fileleak": true, "taintflow": true, "taintfmt": true}

// verify checks every timed operation against an independent reference
// — a cold sequential (Workers: 1) in-process analysis of the same
// source, outside the timed window — and every distinct program's
// reference solution against the interpreter's dynamic points-to facts.
// It prints each failure by operation and program and returns how many
// operations failed.
func (r *run) verify(c *config) int {
	type ver struct {
		in *input
		v  int
	}
	byVer := map[ver][]*op{}
	var vers []ver
	for _, o := range r.ops {
		k := ver{o.in, o.version}
		if byVer[k] == nil {
			vers = append(vers, k)
		}
		byVer[k] = append(byVer[k], o)
	}
	why := map[*op]string{}
	for _, o := range r.ops {
		if o.err != nil {
			why[o] = o.err.Error()
		}
	}
	unsound := map[*input]string{}
	for _, k := range vers {
		ref, err := pta.Analyze(pta.Source{k.in.entry: k.in.versions[k.v]}, k.in.entry, &pta.Options{Workers: 1})
		if err != nil {
			for _, o := range byVer[k] {
				why[o] = "reference analysis failed: " + err.Error()
			}
			continue
		}
		if k.v == 0 && k.in.class != "bug" {
			// Edited versions only shift a statement's column, so the
			// drawn program stands for its whole chain.
			if msg := soundness(ref); msg != "" {
				unsound[k.in] = msg
			}
		}
		refs := map[string]expect{}
		for _, o := range byVer[k] {
			if _, bad := why[o]; bad {
				continue
			}
			want, msg := expected(ref, k.in, o, refs)
			switch {
			case msg != "":
				why[o] = msg
			case want.sum != o.sum:
				why[o] = "output differs from the reference" + explain(want.data, r.snapshots[o.sum])
			}
		}
	}
	for _, o := range r.ops {
		if msg, ok := unsound[o.in]; ok {
			if _, bad := why[o]; !bad {
				why[o] = msg
			}
		}
	}
	var failed []*op
	for o := range why {
		failed = append(failed, o)
	}
	sort.Slice(failed, func(i, j int) bool { return failed[i].id < failed[j].id })
	for _, o := range failed {
		fmt.Fprintf(c.log, "# FAIL op=%d kind=%s program=%s version=%d: %s\n", o.id, o.kind, o.in.name, o.version, why[o])
	}
	fmt.Fprintf(c.log, "# verified %d operations over %d program versions: %d failed\n", len(r.ops), len(vers), len(failed))
	r.failed = len(failed)
	return r.failed
}

// expect is a memoized reference output: its digest (and, for
// snapshots, its bytes), or why the reference fails the known answer.
type expect struct {
	sum  [sha256.Size]byte
	data []byte
	msg  string
}

// expected is the digest the operation's output must have, or a reason
// the reference itself fails the known answer. refs memoizes the
// reference outputs of one program version.
func expected(ref *pta.Result, in *input, o *op, refs map[string]expect) (expect, string) {
	switch o.kind {
	case "check":
		e, ok := refs["check"]
		if !ok {
			e = checkExpect(ref, in)
			refs["check"] = e
		}
		return e, e.msg
	case "miss", "edit", "hit":
		e, ok := refs[o.key]
		if !ok {
			e = snapshotExpect(ref, o.key)
			refs[o.key] = e
		}
		return e, e.msg
	default: // query_post, query_get
		as := make([]server.QueryAnswer, len(o.sites))
		for i, s := range o.sites {
			as[i] = server.QueryAnswer{Proc: s.Proc, Line: s.Line, Expr: s.Expr, PointsTo: ref.PointsToAt(s.Proc, s.Line, s.Expr)}
		}
		return expect{sum: sha256.Sum256([]byte(canonAnswers(as)))}, ""
	}
}

func checkExpect(ref *pta.Result, in *input) expect {
	diags, err := ref.Check(&pta.CheckOptions{Workers: 1})
	if err != nil {
		return expect{msg: "reference check failed: " + err.Error()}
	}
	if msg := verdict(in, diags); msg != "" {
		return expect{msg: msg}
	}
	return expect{sum: sha256.Sum256(renderDiags(diags))}
}

// snapshotExpect encodes the reference snapshot. The daemon records its
// cache key in the snapshot, so the reference carries the same
// fingerprint for the bytes to compare.
func snapshotExpect(ref *pta.Result, key string) expect {
	snap, err := ref.Snapshot(&pta.SnapshotOptions{Fingerprint: key})
	if err != nil {
		return expect{msg: "reference snapshot failed: " + err.Error()}
	}
	data, err := snap.Encode()
	if err != nil {
		return expect{msg: "reference encode failed: " + err.Error()}
	}
	return expect{sum: sha256.Sum256(data), data: data}
}

// explain names the top-level snapshot fields in which a served
// snapshot differs from the reference ("" when either is not a
// snapshot).
func explain(want, got []byte) string {
	var w, g map[string]json.RawMessage
	if json.Unmarshal(want, &w) != nil || json.Unmarshal(got, &g) != nil {
		return ""
	}
	var diff []string
	for k, v := range w {
		if !bytes.Equal(v, g[k]) {
			diff = append(diff, fmt.Sprintf("%s: reference %.160s, served %.160s", k, v, g[k]))
		}
	}
	sort.Strings(diff)
	return "; snapshot fields differ: " + strings.Join(diff, "; ")
}

// verdict checks the reference diagnostics against the input's known
// answer: suite programs have no errors, each bug fixture is flagged by
// its seeded check, and generated (well-defined) programs have no
// errors outside the checks that may fire on well-defined code.
func verdict(in *input, diags []pta.Diagnostic) string {
	flagged := false
	for _, d := range diags {
		if d.Sev != pta.SevError {
			continue
		}
		switch in.class {
		case "bug":
			flagged = flagged || d.Check == in.wantBug
		case "gen":
			if !cleanExempt[d.Check] {
				return fmt.Sprintf("error diagnostic on a well-defined program: %v", d)
			}
		default:
			return fmt.Sprintf("error diagnostic on a clean suite program: %v", d)
		}
	}
	if in.class == "bug" && !flagged {
		return fmt.Sprintf("seeded defect not flagged by %s", in.wantBug)
	}
	return ""
}

// soundness runs the program in the interpreter and checks that every
// dynamic points-to fact is covered by the reference solution (the
// property internal/workload's soundness test pins). Served answers
// that equal the reference are covered with it.
func soundness(ref *pta.Result) string {
	res, err := interp.New(ref.Program(), interp.Options{RecordPointsTo: true, MaxSteps: 20_000_000}).Run()
	if err != nil {
		return "interpreter: " + err.Error()
	}
	sol := ref.Analysis().Solution()
	bySym := map[*cast.Symbol][]memmod.LocSet{}
	byName := map[string][]memmod.LocSet{}
	for _, k := range sol.Locations() {
		if k.Base.Sym != nil {
			bySym[k.Base.Sym] = append(bySym[k.Base.Sym], k)
		}
		byName[k.Base.Name] = append(byName[k.Base.Name], k)
	}
	seen := map[interp.DynFact]bool{}
	for _, f := range res.Facts {
		if seen[f] {
			continue
		}
		seen[f] = true
		cands := byName[f.Block]
		if f.Sym != nil {
			cands = append(append([]memmod.LocSet(nil), bySym[f.Sym]...), cands...)
		}
		if !covered(sol, cands, f) {
			return fmt.Sprintf("unsound: dynamic fact %s+%d -> %s+%d not in the solution", f.Block, f.Off, f.Target, f.TOff)
		}
	}
	return ""
}

func covered(sol *analysis.Solution, keys []memmod.LocSet, f interp.DynFact) bool {
	for _, k := range keys {
		if !blockMatches(k.Base, f.Sym, f.Block) || !covers(k, f.Off) {
			continue
		}
		for _, v := range sol.PointsTo(k).Locs() {
			if blockMatches(v.Base, f.TSym, f.Target) && covers(v, f.TOff) {
				return true
			}
		}
	}
	return false
}

// covers reports whether the location set k includes byte offset off.
func covers(k memmod.LocSet, off int64) bool {
	if k.Stride == 0 {
		return k.Off == off
	}
	return ((off-k.Off)%k.Stride+k.Stride)%k.Stride == 0
}

// blockMatches identifies an analysis block with a runtime object.
func blockMatches(b *memmod.Block, sym *cast.Symbol, name string) bool {
	if sym != nil && b.Sym != nil {
		return b.Sym == sym
	}
	return b.Name == name
}
