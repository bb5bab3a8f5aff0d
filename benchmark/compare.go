package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// Verdicts of one (workload, metric) row.
const (
	verdictOK         = "ok"
	verdictRegression = "REGRESSION"
	// verdictUnresolved: the metric did not worsen past its bound, but one
	// run's own slice quartiles are further apart than the bound, so "no
	// change" cannot be told from noise.
	verdictUnresolved = "unresolved"
)

// judge applies one end-to-end metric's bound to a baseline a and a
// candidate b. worse is how far b moved in the bad direction as a share of
// a; spread is the wider of the two runs' own quartile spreads.
func judge(d metricDef, a, b metric) (worse, spread float64, verdict string) {
	worse = ratio(b.Value-a.Value, a.Value)
	if d.better == "higher" {
		worse = -worse
	}
	spread = max(ratio(a.Q3-a.Q1, a.Value), ratio(b.Q3-b.Q1, b.Value))
	switch {
	case d.bound == 0 && b.Value > a.Value: // fail_ratio: any rise
		return worse, spread, verdictRegression
	case d.bound == 0:
		return worse, spread, verdictOK
	case worse > d.bound:
		return worse, spread, verdictRegression
	case spread > d.bound:
		return worse, spread, verdictUnresolved
	}
	return worse, spread, verdictOK
}

// compareDocs prints one row per (workload, end-to-end metric) of the
// baseline and returns how many rows regressed and how many are
// unresolved. A workload the candidate lacks counts as a regression.
func compareDocs(a, b *document, w io.Writer) (regressions, unresolved int) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbaseline [q1, q3]\tcandidate [q1, q3]\tworse\tbound\tverdict")
	for _, wa := range a.Workloads {
		var wb *workloadDoc
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			fmt.Fprintf(tw, "%s\t-\t-\t-\tmissing\t-\t-\t%s\n", wa.Name, verdictRegression)
			regressions++
			continue
		}
		for _, d := range endToEndDefs {
			ma, mb := wa.EndToEnd[d.name], wb.EndToEnd[d.name]
			worse, _, verdict := judge(d, ma, mb)
			switch verdict {
			case verdictRegression:
				regressions++
			case verdictUnresolved:
				unresolved++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.1f%%\t%.0f%%\t%s\n",
				wa.Name, d.name, d.unit, ma.Value, ma.Q1, ma.Q3, mb.Value, mb.Q1, mb.Q3,
				100*worse, 100*d.bound, verdict)
		}
	}
	tw.Flush()
	fmt.Fprintf(w, "%d regression(s), %d unresolved\n", regressions, unresolved)
	return regressions, unresolved
}

func readDocument(path string) (*document, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// compareFiles is `-compare a.json b.json`: exit status 1 on a regression
// or a fail_ratio rise, 0 otherwise.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, errA := readDocument(pathA)
	b, errB := readDocument(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	if regressions, _ := compareDocs(a, b, stdout); regressions > 0 {
		return 1
	}
	return 0
}
