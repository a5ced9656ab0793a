// Command benchgate compares a freshly generated index-build benchmark
// report (BENCH_build.json format) against a committed baseline and fails on
// performance regressions. It is the CI gate behind the word-packed Fed-SAC
// rounds: the deterministic counters — mpc_rounds above all — must never
// creep back up unnoticed.
//
// Gates, per (dataset, workers, batched) row:
//
//   - mpc_rounds: hard gate. The counter is a deterministic function of the
//     build, independent of the runner, so the tolerance (default +10%)
//     exists only to absorb intentional small drifts; any regression beyond
//     it fails the run.
//   - time_ms (modeled end-to-end: wall + simulated network): reported, but
//     advisory by default (shared CI runners are too noisy for a hard time
//     gate). Set -wall-tolerance > 0 to enforce one.
//   - within the current report, the batched workers=1 row must not spend
//     more MPC rounds than the unbatched row of the same dataset — the
//     "batching can never regress" invariant, checked against the same run
//     rather than the baseline.
//   - within the current report, the customize row must spend under 25% of
//     the sequential batched build's MPC rounds. Next to it, report only, the
//     customize row is set against the default-width build (workers =
//     ch.DefaultBuildWidth) in rounds, Fed-SACs and sim_net_ms: the build a
//     deployment actually runs.
//
// The comparison table is printed to stdout and, when the
// GITHUB_STEP_SUMMARY environment variable is set, appended there as
// markdown so the gate's verdict shows up on the workflow summary page.
//
// Reports from other experiments — BENCH_large.json ("large"), the serving
// soak's BENCH_soak.json ("soak") — are recognized by their experiment tag
// and skipped with a clean exit: they carry their own pass/fail criteria
// (fedbench soak itself fails on oracle or accounting violations) and must
// never trip the index-build perf gate.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/ch"
	"repro/internal/expr"
)

type rowKey struct {
	dataset   string
	workers   int
	batched   bool
	customize bool
}

// errSkip marks a well-formed report of a different experiment (e.g. the
// large-graph tier's BENCH_large.json): not an error, just not gated here.
type errSkip struct{ experiment string }

func (e errSkip) Error() string { return fmt.Sprintf("experiment %q is not gated", e.experiment) }

func load(path string) (map[rowKey]expr.BuildBenchRow, []rowKey, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var rep expr.BuildBenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Experiment != "" && rep.Experiment != "index-build" {
		return nil, nil, errSkip{rep.Experiment}
	}
	rows := make(map[rowKey]expr.BuildBenchRow, len(rep.Rows))
	var order []rowKey
	for _, r := range rep.Rows {
		k := rowKey{r.Dataset, r.Workers, r.Batched, r.Customize}
		if _, dup := rows[k]; dup {
			return nil, nil, fmt.Errorf("%s: duplicate row %+v", path, k)
		}
		rows[k] = r
		order = append(order, k)
	}
	return rows, order, nil
}

func main() {
	var (
		basePath = flag.String("baseline", "BENCH_baseline.json", "committed baseline report")
		curPath  = flag.String("current", "BENCH_build.json", "freshly generated report")
		tol      = flag.Float64("tolerance", 0.10, "allowed fractional mpc_rounds growth over baseline")
		wallTol  = flag.Float64("wall-tolerance", 0, "allowed fractional wall-time growth (0 = advisory only)")
	)
	flag.Parse()

	base, order, err := load(*basePath)
	if err != nil {
		exitLoad(*basePath, err)
	}
	cur, curOrder, err := load(*curPath)
	if err != nil {
		exitLoad(*curPath, err)
	}

	var b strings.Builder
	b.WriteString("## benchgate: index-build perf vs baseline\n\n")
	fmt.Fprintf(&b, "baseline `%s` vs current `%s`, mpc_rounds tolerance +%.0f%%\n\n",
		*basePath, *curPath, *tol*100)
	b.WriteString("| dataset | workers | batched | mode | mpc_rounds (base → cur) | Δ | time ms (base → cur) | Δ | verdict |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|---|\n")

	var failures []string
	for _, k := range order {
		br := base[k]
		cr, ok := cur[k]
		mode := "build"
		if k.customize {
			mode = "customize"
		}
		if !ok {
			failures = append(failures, fmt.Sprintf("row %s/workers=%d/batched=%v/%s missing from current report", k.dataset, k.workers, k.batched, mode))
			fmt.Fprintf(&b, "| %s | %d | %v | %s | %d → (missing) | — | %.1f → — | — | ❌ missing |\n",
				k.dataset, k.workers, k.batched, mode, br.MPCRounds, br.TimeMs)
			continue
		}
		roundsDelta := ratioDelta(float64(cr.MPCRounds), float64(br.MPCRounds))
		wallDelta := ratioDelta(cr.TimeMs, br.TimeMs)
		verdict := "✅"
		if float64(cr.MPCRounds) > float64(br.MPCRounds)*(1+*tol) {
			verdict = "❌ mpc_rounds regression"
			failures = append(failures, fmt.Sprintf("%s/workers=%d/batched=%v/%s: mpc_rounds %d → %d (%+.1f%%, tolerance +%.0f%%)",
				k.dataset, k.workers, k.batched, mode, br.MPCRounds, cr.MPCRounds, roundsDelta, *tol*100))
		}
		if *wallTol > 0 && cr.TimeMs > br.TimeMs*(1+*wallTol) {
			verdict = "❌ wall regression"
			failures = append(failures, fmt.Sprintf("%s/workers=%d/batched=%v/%s: wall %.1fms → %.1fms (%+.1f%%, tolerance +%.0f%%)",
				k.dataset, k.workers, k.batched, mode, br.TimeMs, cr.TimeMs, wallDelta, *wallTol*100))
		}
		fmt.Fprintf(&b, "| %s | %d | %v | %s | %d → %d | %+.1f%% | %.1f → %.1f | %+.1f%% | %s |\n",
			k.dataset, k.workers, k.batched, mode, br.MPCRounds, cr.MPCRounds, roundsDelta,
			br.TimeMs, cr.TimeMs, wallDelta, verdict)
	}

	// Same-run invariant: batching must never cost MPC rounds. Compared
	// within the current report so runner speed cannot mask or fake it.
	b.WriteString("\n### batching invariant (current run)\n\n")
	for _, k := range order {
		if k.workers != 1 || k.batched || k.customize {
			continue
		}
		unb, ok1 := cur[k]
		bat, ok2 := cur[rowKey{k.dataset, 1, true, false}]
		if !ok1 || !ok2 {
			continue
		}
		if bat.MPCRounds > unb.MPCRounds {
			failures = append(failures, fmt.Sprintf("%s: batched build spends %d MPC rounds, unbatched %d — batching regressed",
				k.dataset, bat.MPCRounds, unb.MPCRounds))
			fmt.Fprintf(&b, "- ❌ %s: batched %d rounds > unbatched %d rounds\n", k.dataset, bat.MPCRounds, unb.MPCRounds)
		} else {
			fmt.Fprintf(&b, "- ✅ %s: batched %d rounds ≤ unbatched %d rounds (%.1fx fewer)\n",
				k.dataset, bat.MPCRounds, unb.MPCRounds, safeRatio(float64(unb.MPCRounds), float64(bat.MPCRounds)))
		}
		if bat.TimeMs > unb.TimeMs {
			fmt.Fprintf(&b, "- ⚠️ %s: batched time %.1fms > unbatched %.1fms (advisory)\n", k.dataset, bat.TimeMs, unb.TimeMs)
		}
	}

	// Same-run customize invariant: refreshing the index per traffic version
	// must stay far cheaper than rebuilding it. Reports without customize rows
	// (older formats, partial runs) skip the check cleanly instead of failing.
	b.WriteString("\n### customize invariant (current run)\n\n")
	custLines, custFailures, custErr := customizeGate(cur, curOrder)
	var skip errSkip
	switch {
	case errors.As(custErr, &skip):
		fmt.Fprintf(&b, "- report lacks customize rows (%v) — invariant skipped\n", custErr)
	default:
		for _, l := range custLines {
			b.WriteString(l + "\n")
		}
		failures = append(failures, custFailures...)
	}
	b.WriteString("\n### customize vs default-width build (current run, report only)\n\n")
	if lines := customizeVsDefaultBuild(cur, curOrder); len(lines) > 0 {
		b.WriteString(strings.Join(lines, "\n") + "\n")
	} else {
		b.WriteString("- report lacks a customize row or a default-width build row\n")
	}

	if len(failures) == 0 {
		b.WriteString("\n**PASS** — no regressions.\n")
	} else {
		b.WriteString("\n**FAIL**\n\n")
		for _, f := range failures {
			fmt.Fprintf(&b, "- %s\n", f)
		}
	}

	fmt.Print(b.String())
	if path := os.Getenv("GITHUB_STEP_SUMMARY"); path != "" {
		if f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644); err == nil {
			f.WriteString(b.String())
			f.Close()
		}
	}
	if len(failures) > 0 {
		os.Exit(1)
	}
}

// customizeGate checks the same-run customize-rounds invariant: for every
// dataset carrying a customize row, the weight-customization sweep must spend
// LESS THAN 25% of the MPC rounds of that dataset's sequential batched full
// build (4×customize < build, exact integer arithmetic). Like the batching
// invariant it is judged within one report, so runner speed can neither mask
// nor fake it. A report with no customize rows at all returns errSkip: older
// report formats are not gated on data they do not carry.
func customizeGate(cur map[rowKey]expr.BuildBenchRow, order []rowKey) (lines, failures []string, err error) {
	found := false
	for _, k := range order {
		if !k.customize {
			continue
		}
		found = true
		cust := cur[k]
		build, ok := cur[rowKey{dataset: k.dataset, workers: 1, batched: true}]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: customize row has no sequential batched build row to compare against", k.dataset))
			lines = append(lines, fmt.Sprintf("- ❌ %s: missing the sequential batched build row", k.dataset))
			continue
		}
		pct := 0.0
		if build.MPCRounds > 0 {
			pct = float64(cust.MPCRounds) / float64(build.MPCRounds) * 100
		}
		if 4*cust.MPCRounds < build.MPCRounds {
			lines = append(lines, fmt.Sprintf("- ✅ %s: customize %d rounds < 25%% of full build %d rounds (%.1f%%)",
				k.dataset, cust.MPCRounds, build.MPCRounds, pct))
		} else {
			failures = append(failures, fmt.Sprintf("%s: customize spends %d MPC rounds, full build %d — refresh cost is %.1f%% of a rebuild (must be < 25%%)",
				k.dataset, cust.MPCRounds, build.MPCRounds, pct))
			lines = append(lines, fmt.Sprintf("- ❌ %s: customize %d rounds ≥ 25%% of full build %d rounds (%.1f%%)",
				k.dataset, cust.MPCRounds, build.MPCRounds, pct))
		}
	}
	if !found {
		return nil, nil, errSkip{"index-build without customize rows"}
	}
	return lines, failures, nil
}

// customizeVsDefaultBuild sets every customize row against its dataset's
// batched build at the default width, the build a deployment runs. Report
// only: once the contractions in flight share their Fed-SAC batches, that
// build can cost fewer rounds than a customize pass, and the gate above
// keeps comparing against the sequential build.
func customizeVsDefaultBuild(cur map[rowKey]expr.BuildBenchRow, order []rowKey) []string {
	var lines []string
	for _, k := range order {
		if !k.customize {
			continue
		}
		build, ok := cur[rowKey{dataset: k.dataset, workers: ch.DefaultBuildWidth, batched: true}]
		if !ok {
			continue
		}
		cust := cur[k]
		lines = append(lines, fmt.Sprintf("- %s: customize %d rounds / %d Fed-SACs / %.1f ms sim_net vs workers=%d build %d rounds / %d Fed-SACs / %.1f ms sim_net — customize is %.1f%% of the build's rounds",
			k.dataset, cust.MPCRounds, cust.Compares, cust.SimNetMs, ch.DefaultBuildWidth,
			build.MPCRounds, build.Compares, build.SimNetMs, safeRatio(float64(cust.MPCRounds), float64(build.MPCRounds))*100))
	}
	return lines
}

// exitLoad terminates on a load failure: an errSkip (a report from another
// experiment, e.g. BENCH_large.json) is a clean pass — the gate only judges
// index-build reports — while anything else is a hard error.
func exitLoad(path string, err error) {
	var skip errSkip
	if errors.As(err, &skip) {
		fmt.Printf("benchgate: %s: %v — ignored\n", path, err)
		os.Exit(0)
	}
	fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
	os.Exit(1)
}

func ratioDelta(cur, base float64) float64 {
	if base == 0 {
		return 0
	}
	return (cur/base - 1) * 100
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
