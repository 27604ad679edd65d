package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestManifestMatchesBenchmarkJSON keeps the committed BENCHMARK.json in
// step with the workloads and metrics this package defines. Regenerate it
// with: go run . --manifest > ../BENCHMARK.json
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := writeManifest(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("BENCHMARK.json is stale; regenerate with go run . --manifest > ../BENCHMARK.json\n got:\n%s", got.String())
	}
}

// TestWorkloadReasonsFit checks the limits BENCHMARK.json places on
// workload reasons: one line of at most 200 characters.
func TestWorkloadReasonsFit(t *testing.T) {
	for _, w := range workloads {
		if len(w.why) > 200 || bytes.ContainsAny([]byte(w.why), "\n") {
			t.Errorf("%s: reason is %d characters or spans lines", w.name, len(w.why))
		}
	}
}

// TestMetricNames checks that every metric name is unique and within the
// character set and length BENCHMARK.json allows, and that each
// end-to-end metric has a bound of at most 0.25.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s defined twice", d.Name)
		}
		seen[d.Name] = true
		if !validName(d.Name, 64, "_.-") || !validName(d.Unit, 16, "_/%.-") {
			t.Errorf("metric %s (unit %s) breaks the name or unit rules", d.Name, d.Unit)
		}
	}
	for _, d := range endToEnd {
		if d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s has bound %v, want (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !seen["setup_s"] {
		t.Error("setup_s is missing")
	}
}

// validName reports whether s starts with a letter or digit and holds
// at most maxLen letters, digits and characters of extra.
func validName(s string, maxLen int, extra string) bool {
	if s == "" || len(s) > maxLen {
		return false
	}
	for i, r := range s {
		alnum := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9'
		if !alnum && (i == 0 || !strings.ContainsRune(extra, r)) {
			return false
		}
	}
	return true
}
