package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// verdict is -compare's judgement of one (workload, metric) pairing.
type verdict string

const (
	better     verdict = "better"
	within     verdict = "within bound"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// series collects one metric's value from every set of a report.
func series(rep report, workload, metric string) []float64 {
	var v []float64
	for _, set := range rep.Sets {
		if m, ok := set[workload].Metrics[metric]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// judge applies a metric's bound (every end-to-end metric is
// lower-is-better): worse when the new median exceeds the old by more than
// the bound, better when it is lower by more than the bound, within
// otherwise. When either side's own run-to-run spread is wider than the
// bound the pairing is unresolved, unless every new run beats every old
// run (choosing-metrics §6.5).
func judge(old, new []float64, bound float64) (verdict, float64) {
	mo, mn := median(old), median(new)
	change := (mn - mo) / mo
	if math.Max(iqrSpread(old), iqrSpread(new)) > bound {
		if sortedCopy(new)[len(new)-1] < sortedCopy(old)[0] {
			return better, change
		}
		return unresolved, change
	}
	switch {
	case change > bound:
		return worse, change
	case change < -bound:
		return better, change
	}
	return within, change
}

func readReport(path string) (report, error) {
	var rep report
	b, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Sets) == 0 {
		return rep, fmt.Errorf("%s: no result sets", path)
	}
	return rep, nil
}

// compareFiles prints one row per (workload, end-to-end metric) present in
// both reports and returns the process exit code: 1 on any "worse" or any
// new failure, 0 otherwise.
func compareFiles(oldPath, newPath string) int {
	oldRep, err := readReport(oldPath)
	if err != nil {
		fatal("%v", err)
	}
	newRep, err := readReport(newPath)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Fprintf(logw, "old: commit %s seed %d (%d sets)\nnew: commit %s seed %d (%d sets)\n",
		oldRep.Stamp.Commit, oldRep.Stamp.Seed, len(oldRep.Sets), newRep.Stamp.Commit, newRep.Stamp.Seed, len(newRep.Sets))
	fmt.Fprintf(logw, "%-12s %-16s %12s %12s %8s %6s  %s\n", "workload", "metric", "old", "new", "change", "bound", "verdict")
	code := 0
	for _, w := range workloads {
		for _, m := range endToEnd {
			o, n := series(oldRep, w.Name, m.Name), series(newRep, w.Name, m.Name)
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			v, change := judge(o, n, m.Bound)
			if v == worse {
				code = 1
			}
			fmt.Fprintf(logw, "%-12s %-16s %12.4f %12.4f %+7.1f%% %5.0f%%  %s\n",
				w.Name, m.Name, median(o), median(n), 100*change, 100*m.Bound, v)
		}
		// fail_ratio has no bound: any increase is a regression.
		fo, fn := failRatio(oldRep, w.Name), failRatio(newRep, w.Name)
		if !math.IsNaN(fo) && !math.IsNaN(fn) {
			v := within
			if fn > fo {
				v, code = worse, 1
			}
			fmt.Fprintf(logw, "%-12s %-16s %12.6f %12.6f %8s %6s  %s\n", w.Name, "fail_ratio", fo, fn, "", "any", v)
		}
	}
	return code
}

func failRatio(rep report, workload string) float64 {
	var failed, attempted int64
	for _, set := range rep.Sets {
		failed += set[workload].Failed
		attempted += set[workload].Attempted
	}
	if attempted == 0 {
		return math.NaN()
	}
	return float64(failed) / float64(attempted)
}

// printRepeat prints, for every (workload, end-to-end metric), the largest
// pairwise relative difference between the sets of one build against the
// metric's bound, and reports whether all stayed inside.
func printRepeat(rep report) bool {
	fmt.Fprintf(logw, "repeatability over %d sets of the same build\n", len(rep.Sets))
	fmt.Fprintf(logw, "%-12s %-16s %12s %9s %6s\n", "workload", "metric", "median", "max diff", "bound")
	ok := true
	for _, w := range workloads {
		for _, m := range endToEnd {
			v := series(rep, w.Name, m.Name)
			if len(v) < 2 {
				continue
			}
			d := maxPairwiseRel(v)
			flag := ""
			if d > m.Bound {
				flag, ok = "  EXCEEDS BOUND", false
			}
			fmt.Fprintf(logw, "%-12s %-16s %12.4f %8.1f%% %5.0f%%%s\n", w.Name, m.Name, median(v), 100*d, 100*m.Bound, flag)
		}
	}
	return ok
}
