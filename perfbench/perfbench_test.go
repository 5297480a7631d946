package main

// Self-tests at a tiny input size: every workload runs correct, emits every
// named metric with its unit, and its deterministic figures repeat exactly
// for one seed and change for another.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// tinyScale is each workload's input size in percent for the self-tests.
var tinyScale = map[string]int{
	"epc-line":     5,
	"dock-fanout":  1,
	"late-durable": 5,
}

func tinyOpts(t *testing.T, seed int64, name string) runOpts {
	dir := t.TempDir()
	outRoot = dir
	return runOpts{seed: seed, scale: tinyScale[name], outDir: filepath.Join(dir, "out")}
}

// runBoth runs the untraced and the traced run of one workload and checks
// the result lines.
func runBoth(t *testing.T, name string, seed int64) (facts, layerOut) {
	t.Helper()
	wl := workloads[name]
	res, f, err := runEndToEnd(wl, tinyOpts(t, seed, name))
	if err != nil {
		t.Fatalf("%s end-to-end: %v", name, err)
	}
	checkResult(t, name, res, endToEnd)
	checkMetrics(t, name, res.Unbounded, unbounded)
	tres, layers, err := runTraced(wl, tinyOpts(t, seed, name))
	if err != nil {
		t.Fatalf("%s traced: %v", name, err)
	}
	checkResult(t, name, tres, perLayer)
	for _, file := range []string{"spans-" + name + ".csv", "selftime-" + name + ".txt"} {
		if st, err := os.Stat(filepath.Join(outRoot, "out", file)); err != nil || st.Size() == 0 {
			t.Errorf("%s: trace file %s missing or empty (%v)", name, file, err)
		}
	}
	return f, layers
}

func checkResult(t *testing.T, name string, res result, want []struct{ name, unit string }) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
	}
	checkMetrics(t, name, res.Metrics, want)
}

func checkMetrics(t *testing.T, name string, got map[string]metric, want []struct{ name, unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, want %d", name, len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.name]
		if !ok {
			t.Errorf("%s: metric %s missing", name, m.name)
			continue
		}
		if g.Unit != m.unit {
			t.Errorf("%s: metric %s unit %q, want %q", name, m.name, g.Unit, m.unit)
		}
	}
}

// deterministic lists the figures that must repeat for a seed, with the
// workloads on which a different seed must change them.
var deterministic = []struct {
	name    string
	changes map[string]bool
	layer   bool
}{
	{name: "rows", changes: map[string]bool{"epc-line": true, "dock-fanout": true, "late-durable": true}},
	// The median is set by the feed's cadence and batch size, not the seed.
	{name: "event_lag_p50_ms", changes: map[string]bool{}},
	{name: "event_lag_p99_ms", changes: map[string]bool{"late-durable": true}},
	// Every workload's key count is fixed by construction (a fresh EPC per
	// item, 16 dock tags, 64 late tags), so the final count cannot change
	// with the seed; the count at half the feed depends on how the seed
	// interleaves items.
	{name: "core.partitions", layer: true, changes: map[string]bool{}},
	{name: "core.partitions_at_half", layer: true, changes: map[string]bool{"epc-line": true}},
	{name: "core.state_tuples", layer: true, changes: map[string]bool{"epc-line": true}},
	{name: "esl.route.skip_ratio", layer: true, changes: map[string]bool{"dock-fanout": true}},
	{name: "spec.retract_ratio", layer: true, changes: map[string]bool{"late-durable": true}},
}

func TestWorkloads(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			f1, l1 := runBoth(t, name, 1)
			f2, l2 := runBoth(t, name, 1)
			f3, l3 := runBoth(t, name, 2)
			for _, d := range deterministic {
				a, b, c := f1[d.name], f2[d.name], f3[d.name]
				if d.layer {
					a, b, c = l1[d.name], l2[d.name], l3[d.name]
				}
				if a != b {
					t.Errorf("%s: %s differs between runs of one seed: %v vs %v", name, d.name, a, b)
				}
				if d.changes[name] && a == c {
					t.Errorf("%s: %s is %v for seeds 1 and 2", name, d.name, a)
				}
			}
		})
	}
}

// TestWorkloadRoles checks the profile each workload exists to show.
func TestWorkloadRoles(t *testing.T) {
	_, epc := runBoth(t, "epc-line", 1)
	if epc["core.partitions"] <= epc["core.partitions_at_half"] {
		t.Errorf("epc-line: core.partitions %v did not grow past %v at half the feed",
			epc["core.partitions"], epc["core.partitions_at_half"])
	}
	// Retained tuples stay flat while partitions keep growing.
	if half, end := epc["core.state_tuples_at_half"], epc["core.state_tuples"]; end > 1.5*half+8 {
		t.Errorf("epc-line: core.state_tuples grew from %v at half the feed to %v", half, end)
	}
	_, dock := runBoth(t, "dock-fanout", 1)
	if dock["esl.route.skip_ratio"] <= 0.5 {
		t.Errorf("dock-fanout: esl.route.skip_ratio %v, want > 0.5", dock["esl.route.skip_ratio"])
	}
	if a, b := epc["core.advance.share"], dock["core.advance.share"]; a <= 0.5 || b >= 0.5 {
		t.Errorf("core.advance.share: epc-line %v (want a majority), dock-fanout %v (want a minority)", a, b)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the workloads
// and metrics this program emits, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var b struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not a workload", w.Name)
		}
	}
	for _, c := range []struct {
		listed []named
		emits  []struct{ name, unit string }
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.listed) != len(c.emits) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program emits %d", len(c.listed), len(c.emits))
			continue
		}
		for i, m := range c.listed {
			if m.Name != c.emits[i].name || m.Unit != c.emits[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s/%s, program %s/%s", i, m.Name, m.Unit, c.emits[i].name, c.emits[i].unit)
			}
		}
	}
}
