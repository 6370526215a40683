package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// The contract's limits on BENCHMARK.json, checked on the tables it is
// generated from.
func TestSpecObeysTheContract(t *testing.T) {
	seen := map[string]bool{}
	name := func(kind, n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is outside [A-Za-z0-9_.-]{1,64}", kind, n)
		}
		if seen[n] {
			t.Errorf("%s name %q is used twice", kind, n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads, contract allows 2..8", len(workloads))
	}
	for _, w := range workloads {
		name("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(endToEnd) < 1 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, contract allows 1..16", len(endToEnd))
	}
	for _, m := range endToEnd {
		name("end-to-end metric", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
	}
	if s, ok := e2eByName("setup_s"); !ok || s.Unit != "s" || s.Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better: %+v", s)
	}
	if len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, contract allows 1..128", len(perLayer))
	}
	for _, l := range perLayer {
		name("per-layer metric", l.Name)
		if !unitRE.MatchString(l.Unit) {
			t.Errorf("metric %s: unit %q", l.Name, l.Unit)
		}
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", runSeconds)
	}
	if len(benchmarkJSON()) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(benchmarkJSON()))
	}
}

// BENCHMARK.json is generated (`go run ./benchmark -spec`); the committed
// file must be exactly what the tables say, and carry exactly the
// contract's keys.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	if !bytes.Equal(got, benchmarkJSON()) {
		t.Errorf("BENCHMARK.json differs from the benchmark's tables; regenerate it with `go run ./benchmark -spec > BENCHMARK.json`")
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	want := []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
	if len(doc) != len(want) {
		t.Errorf("BENCHMARK.json has %d keys, contract has %d", len(doc), len(want))
	}
	for _, k := range want {
		if _, ok := doc[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
}

// Every registered name is emitted and nothing else is: the untraced run
// yields exactly the end-to-end names, the traced run exactly the
// per-layer names. pp-real-1k needs no mesh, so this stays fast.
func TestEmittedNamesMatchSpec(t *testing.T) {
	quiet(t)
	e2e, err := measureE2E("pp-real-1k", 1, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, m := range endToEnd {
		want = append(want, m.Name)
	}
	sameNames(t, "untraced run", sortedKeys(e2e.Metrics), want)
	for n, m := range e2e.Metrics {
		if spec, _ := e2eByName(n); m.Unit != spec.Unit {
			t.Errorf("%s emitted in %q, registered in %q", n, m.Unit, spec.Unit)
		}
		if m.Value == 0 {
			t.Errorf("end-to-end metric %s is 0", n)
		}
	}

	vals := foldWorkload(&ppRunner{}, [2]armData{}, [2]armData{}, netCounts{})
	for k := range layerNames(false) {
		vals[k] = 0 // the microbenchmarks' names; their values are the smoke test's business
	}
	want = want[:0]
	for _, l := range perLayer {
		want = append(want, l.Name)
	}
	sameNames(t, "traced run", sortedKeys(vals), want)
}

func e2eByName(name string) (e2eSpec, bool) {
	for _, m := range endToEnd {
		if m.Name == name {
			return m, true
		}
	}
	return e2eSpec{}, false
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// layerNames returns the per-layer names of one kind.
func layerNames(traced bool) map[string]bool {
	names := map[string]bool{}
	for _, l := range perLayer {
		if l.traced == traced {
			names[l.Name] = true
		}
	}
	return names
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	g, w := map[string]bool{}, map[string]bool{}
	for _, n := range got {
		g[n] = true
	}
	for _, n := range want {
		w[n] = true
		if !g[n] {
			t.Errorf("%s does not emit registered metric %s", what, n)
		}
	}
	for _, n := range got {
		if !w[n] {
			t.Errorf("%s emits unregistered metric %s", what, n)
		}
	}
}
