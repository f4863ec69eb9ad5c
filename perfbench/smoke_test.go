package main

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

const smokeSeconds = 500 * time.Millisecond

// reportOnly are the end-to-end metrics of the full report that the result
// line leaves out: zero on a healthy run (error_rate), too noisy or too
// small to bound on some workload (latency_p99_us, allocs_per_op), or
// defined on one backend only (model_ops_per_ms).
var reportOnly = []string{"latency_p99_us", "error_rate", "allocs_per_op", "model_ops_per_ms"}

// checkNamed fails unless every name is reported with a unit, and either a
// value or, where allowed, a reason for its absence.
func checkNamed(t *testing.T, ms metrics, names []string, mayBeAbsent bool) {
	t.Helper()
	for _, n := range names {
		m, ok := ms.m[n]
		switch {
		case !ok:
			t.Errorf("%s not reported", n)
		case m.Unit == "":
			t.Errorf("%s reported without a unit", n)
		case m.Absent != "" && !mayBeAbsent:
			t.Errorf("%s absent (%s), but the result line needs it", n, m.Absent)
		}
	}
}

func checkGate(t *testing.T, w *workload, res *result) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || len(res.Errors) > 0 {
		t.Fatalf("run not correct: failed %d of %d, errors %v", res.Failed, res.Attempted, res.Errors)
	}
	if res.Checked != len(res.Reps) || res.Checked == 0 {
		t.Errorf("correctness gate ran on %d of %d repetitions", res.Checked, len(res.Reps))
	}
	if !w.live() && res.Audited == 0 {
		t.Error("sim run was never audited")
	}
}

// TestSmokeEndToEnd runs a very short pass of every workload and checks
// that each end-to-end metric is emitted with its unit and that the
// correctness gate ran on every repetition.
func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(w, 7, smokeSeconds, false)
			if err != nil {
				t.Fatal(err)
			}
			checkGate(t, w, res)
			checkNamed(t, res.Metrics, endToEnd, false)
			checkNamed(t, res.Metrics, reportOnly, true)
			if m := res.Metrics.m["model_ops_per_ms"]; w.live() == (m.Absent == "") {
				t.Errorf("model_ops_per_ms on %s backend: %+v", w.backend, m)
			}
		})
	}
}

// TestSmokeTraced runs a very short traced pass of every workload and
// checks that each per-layer metric of the result line is measured.
func TestSmokeTraced(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(w, 7, smokeSeconds, true)
			if err != nil {
				t.Fatal(err)
			}
			checkGate(t, w, res)
			checkNamed(t, res.Layers, perLayer, false)
			if v := res.Layers.m["core.attempts_per_op"].Value; v < 1 {
				t.Errorf("core.attempts_per_op = %v, want >= 1", v)
			}
		})
	}
}

// TestSimModelIsPinned checks that the sim workload's model metrics do not
// depend on anything but the seed.
func TestSimModelIsPinned(t *testing.T) {
	w, err := workloadByName("transfer-sim")
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	for i := 0; i < 2; i++ {
		res, err := runWorkload(w, 11, time.Millisecond, false)
		if err != nil {
			t.Fatal(err)
		}
		checkGate(t, w, res)
		got = append(got, res.Metrics.m["model_ops_per_ms"].Value, res.Metrics.m["latency_p99_us"].Value)
	}
	if got[0] != got[2] || got[1] != got[3] {
		t.Errorf("same seed, different model: %v", got)
	}
}

// TestGateCatchesLostMoney breaks the bank after a run and expects the
// correctness gate to refuse the repetition.
func TestGateCatchesLostMoney(t *testing.T) {
	w, err := workloadByName("transfer-contended")
	if err != nil {
		t.Fatal(err)
	}
	b := newBench(w, 3, false)
	r, err := b.runRep(100*time.Millisecond, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.err != nil {
		t.Fatalf("healthy run refused: %v", r.err)
	}
	b.accts.SetRaw(0, b.accts.GetRaw(0)+1)
	if err := check(b.sys, b.accts, r, false); err == nil || !strings.Contains(err.Error(), "bank total") {
		t.Errorf("gate passed a bank that gained money: %v", err)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names the workloads and
// result-line metrics this program runs and prints.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Why string }
	var spec struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for i, w := range spec.Workloads {
		if i < len(workloads) && w.Why != workloads[i].why {
			t.Errorf("BENCHMARK.json says %s exists because %q, program says %q", w.Name, w.Why, workloads[i].why)
		}
	}
	names := func(v []entry) []string {
		var out []string
		for _, x := range v {
			out = append(out, x.Name)
		}
		return out
	}
	var ws []string
	for _, w := range workloads {
		ws = append(ws, w.name)
	}
	for _, c := range []struct {
		what      string
		got, want []string
	}{
		{"workloads", names(spec.Workloads), ws},
		{"end_to_end", names(spec.EndToEnd), endToEnd},
		{"per_layer", names(spec.PerLayer), perLayer},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("BENCHMARK.json %s = %v, program has %v", c.what, c.got, c.want)
		}
	}
}
