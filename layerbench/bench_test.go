package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

// brief runs one workload for a single pass (the window is shorter than
// any pass), traced, and returns its result and log.
func brief(t *testing.T, workload string, tamper func(*op, []byte) []byte) (*result, string) {
	t.Helper()
	var log bytes.Buffer
	res, err := execute(&config{
		workload: workload, seed: 7, seconds: time.Millisecond, trace: true,
		out: t.TempDir(), log: &log, tamper: tamper,
	})
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, log.String())
	}
	return res, log.String()
}

// TestEveryMetricEmitted runs each workload briefly and checks that the
// traced result carries every per-layer metric, the untraced metrics
// are all computed, and each has its unit.
func TestEveryMetricEmitted(t *testing.T) {
	for _, w := range []string{"batch-check", "serve-cold", "serve-edit"} {
		t.Run(w, func(t *testing.T) {
			res, log := brief(t, w, nil)
			if res.Attempted == 0 {
				t.Fatal("no operations attempted")
			}
			if res.Failed > 0 {
				t.Logf("%d operations failed verification:\n%s", res.Failed, failLines(log))
			}
			if len(res.Metrics) != len(perLayerNames) {
				t.Errorf("traced run reports %d metrics, want %d", len(res.Metrics), len(perLayerNames))
			}
			for _, n := range perLayerNames {
				m, ok := res.Metrics[n]
				if !ok || m.Unit != unitOf(n) || m.Unit == "" {
					t.Errorf("per-layer metric %s: got %+v, present %v", n, m, ok)
				}
			}
			for _, n := range endToEndNames {
				v, unit, ok := printed(log, n)
				if !ok || v <= 0 || unit != unitOf(n) {
					t.Errorf("end-to-end metric %s printed as %v %q (found %v), want > 0 %s", n, v, unit, ok, unitOf(n))
				}
			}
		})
	}
}

// TestPlantedWrongAnswerCaught corrupts one served output per workload
// and checks verification fails exactly that operation and counts it.
func TestPlantedWrongAnswerCaught(t *testing.T) {
	for _, c := range []struct{ workload, kind string }{
		{"batch-check", "check"},
		{"serve-cold", "miss"},
		{"serve-edit", "edit"},
		{"serve-edit", "query_get"},
	} {
		t.Run(c.workload+"/"+c.kind, func(t *testing.T) {
			planted := false
			res, log := brief(t, c.workload, func(o *op, out []byte) []byte {
				if planted || o.kind != c.kind {
					return out
				}
				planted = true
				return append(append([]byte(nil), out...), " planted"...)
			})
			if !planted {
				t.Fatalf("no %s operation ran", c.kind)
			}
			if res.Correct || res.Failed == 0 {
				t.Fatalf("planted wrong answer not caught: correct=%v failed=%d", res.Correct, res.Failed)
			}
			if r := res.Metrics["error_ratio"].Value; r <= 0 {
				t.Errorf("error_ratio = %v, want > 0", r)
			}
			if !strings.Contains(log, "kind="+c.kind+" ") || !strings.Contains(log, "differs from the reference") {
				t.Errorf("failure not listed by operation:\n%s", failLines(log))
			}
		})
	}
}

// printed finds a metric on the human-readable metric lines.
func printed(log, name string) (float64, string, bool) {
	for _, l := range strings.Split(log, "\n") {
		var n, unit string
		var v float64
		if _, err := fmt.Sscanf(l, "#   %s %f %s", &n, &v, &unit); err == nil && n == name {
			return v, unit, true
		}
	}
	return 0, "", false
}

func failLines(log string) string {
	var b strings.Builder
	for _, l := range strings.Split(log, "\n") {
		if strings.HasPrefix(l, "# FAIL") {
			b.WriteString(l + "\n")
		}
	}
	return b.String()
}
