package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/expr"
)

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// Reports tagged with another experiment must come back as errSkip — a clean
// pass, not a gate failure. The soak report is the case that matters: CI
// uploads BENCH_soak.json next to BENCH_build.json, and a glob that feeds
// both into benchgate must not fail the build.
func TestLoadSkipsForeignExperiments(t *testing.T) {
	for _, exp := range []string{"soak", "large"} {
		path := writeTemp(t, "r.json", `{"experiment":"`+exp+`","rows":[]}`)
		_, _, err := load(path)
		var skip errSkip
		if !errors.As(err, &skip) {
			t.Fatalf("experiment %q: err %v, want errSkip", exp, err)
		}
		if skip.experiment != exp {
			t.Fatalf("errSkip names %q, want %q", skip.experiment, exp)
		}
	}
}

func TestLoadAcceptsIndexBuildReports(t *testing.T) {
	// Both the tagged and the legacy untagged form load.
	for _, content := range []string{
		`{"experiment":"index-build","silos":3,"rows":[{"dataset":"CAL-S","workers":1,"batched":true,"mpc_rounds":10}]}`,
		`{"silos":3,"rows":[{"dataset":"CAL-S","workers":1,"batched":true,"mpc_rounds":10}]}`,
	} {
		path := writeTemp(t, "r.json", content)
		rows, order, err := load(path)
		if err != nil {
			t.Fatalf("index-build report rejected: %v", err)
		}
		if len(rows) != 1 || len(order) != 1 {
			t.Fatalf("loaded %d rows, want 1", len(rows))
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	path := writeTemp(t, "r.json", `{nope`)
	if _, _, err := load(path); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	var skip errSkip
	if _, _, err := load(path); errors.As(err, &skip) {
		t.Fatal("malformed JSON classified as a skippable foreign report")
	}
	if _, _, err := load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestLoadRejectsDuplicateRows(t *testing.T) {
	path := writeTemp(t, "r.json",
		`{"experiment":"index-build","rows":[{"dataset":"CAL-S","workers":1,"batched":true},{"dataset":"CAL-S","workers":1,"batched":true}]}`)
	if _, _, err := load(path); err == nil {
		t.Fatal("duplicate rows accepted")
	}
}

// A customize row at the same (dataset, workers, batched) as a build row is
// NOT a duplicate — the customize flag is part of the row identity.
func TestLoadDistinguishesCustomizeRows(t *testing.T) {
	path := writeTemp(t, "r.json",
		`{"experiment":"index-build","rows":[
			{"dataset":"CAL-S","workers":1,"batched":true,"mpc_rounds":100},
			{"dataset":"CAL-S","workers":1,"batched":true,"customize":true,"mpc_rounds":10}]}`)
	rows, order, err := load(path)
	if err != nil {
		t.Fatalf("customize + build rows rejected as duplicates: %v", err)
	}
	if len(rows) != 2 || len(order) != 2 {
		t.Fatalf("loaded %d rows, want 2", len(rows))
	}
}

// customizeGate: reports with no customize rows at all must come back as
// errSkip — older report formats are not failed over data they do not carry.
func TestCustomizeGateSkipsReportsWithoutCustomizeData(t *testing.T) {
	path := writeTemp(t, "r.json",
		`{"experiment":"index-build","rows":[{"dataset":"CAL-S","workers":1,"batched":true,"mpc_rounds":100}]}`)
	rows, order, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	_, failures, err := customizeGate(rows, order)
	var skip errSkip
	if !errors.As(err, &skip) {
		t.Fatalf("err %v, want errSkip", err)
	}
	if len(failures) != 0 {
		t.Fatalf("skipped gate produced failures: %v", failures)
	}
}

// customizeGate: the 25% threshold is a strict 4×customize < build integer
// comparison against the sequential batched build of the same dataset.
func TestCustomizeGateEnforces25Percent(t *testing.T) {
	mk := func(custRounds int) string {
		return writeTemp(t, "r.json", `{"experiment":"index-build","rows":[
			{"dataset":"CAL-S","workers":1,"batched":true,"mpc_rounds":1000},
			{"dataset":"CAL-S","workers":8,"batched":true,"customize":true,"mpc_rounds":`+itoa(custRounds)+`}]}`)
	}
	for _, tc := range []struct {
		rounds int
		pass   bool
	}{
		{249, true},  // strictly under 25%
		{250, false}, // exactly 25% — 4*250 == 1000, not < — fails
		{999, false},
	} {
		path := mk(tc.rounds)
		rows, order, err := load(path)
		if err != nil {
			t.Fatal(err)
		}
		lines, failures, err := customizeGate(rows, order)
		if err != nil {
			t.Fatalf("rounds=%d: unexpected error %v", tc.rounds, err)
		}
		if len(lines) != 1 {
			t.Fatalf("rounds=%d: %d summary lines, want 1", tc.rounds, len(lines))
		}
		if got := len(failures) == 0; got != tc.pass {
			t.Fatalf("rounds=%d: pass=%v, want %v (failures: %v)", tc.rounds, got, tc.pass, failures)
		}
	}
}

// customizeGate: a customize row without its dataset's sequential batched
// build row is a hard failure (the invariant cannot be evaluated).
func TestCustomizeGateFailsWithoutBuildRow(t *testing.T) {
	path := writeTemp(t, "r.json",
		`{"experiment":"index-build","rows":[{"dataset":"CAL-S","workers":8,"batched":true,"customize":true,"mpc_rounds":10}]}`)
	rows, order, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	_, failures, err := customizeGate(rows, order)
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if len(failures) != 1 {
		t.Fatalf("%d failures, want 1", len(failures))
	}
}

func itoa(v int) string { return fmt.Sprintf("%d", v) }

// customizeVsDefaultBuild reports the customize row against the default-width
// build row of the same dataset, and nothing when either row is missing.
func TestCustomizeVsDefaultBuildReportOnly(t *testing.T) {
	rows := map[rowKey]expr.BuildBenchRow{
		{dataset: "CAL-S", workers: 1, batched: true}:                  {MPCRounds: 38848},
		{dataset: "CAL-S", workers: 8, batched: true}:                  {MPCRounds: 5568, Compares: 96026, SimNetMs: 1121},
		{dataset: "CAL-S", workers: 8, batched: true, customize: true}: {MPCRounds: 2048, Compares: 1054, SimNetMs: 409.8},
		{dataset: "BJ-S", workers: 8, batched: true, customize: true}:  {MPCRounds: 9},
	}
	order := []rowKey{
		{dataset: "CAL-S", workers: 8, batched: true, customize: true},
		{dataset: "BJ-S", workers: 8, batched: true, customize: true},
	}
	lines := customizeVsDefaultBuild(rows, order)
	if len(lines) != 1 {
		t.Fatalf("got %d lines, want 1 (BJ-S has no build row): %q", len(lines), lines)
	}
	for _, want := range []string{"customize 2048 rounds", "5568 rounds", "36.8%"} {
		if !strings.Contains(lines[0], want) {
			t.Fatalf("line %q lacks %q", lines[0], want)
		}
	}
}
