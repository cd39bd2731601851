package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// verdict of one (metric, workload) pair of a comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// comparison is one row of -compare.
type comparison struct {
	Workload, Metric string
	MedianA, MedianB float64
	SpreadA, SpreadB float64
	Ratio, Bound     float64
	Verdict          string
}

// compareRecords compares the untraced runs of two result sets on every
// end-to-end metric of s. A side whose run-to-run spread exceeds the
// bound cannot resolve a change of that size: the pair is unresolved
// unless every run of B is better than every run of A.
func compareRecords(s *spec, a, b []*Record) ([]comparison, error) {
	byWorkload := func(recs []*Record) map[string][]*Record {
		m := map[string][]*Record{}
		for _, r := range recs {
			if !r.Trace {
				m[r.Workload] = append(m[r.Workload], r)
			}
		}
		return m
	}
	wa, wb := byWorkload(a), byWorkload(b)
	var rows []comparison
	for _, name := range sortedKeys(wa) {
		rb, ok := wb[name]
		if !ok {
			continue
		}
		for _, m := range s.EndToEnd {
			va, vb := values(wa[name], m.Name), values(rb, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				return nil, fmt.Errorf("%s: %s missing on one side", name, m.Name)
			}
			row := comparison{Workload: name, Metric: m.Name, Bound: m.Bound}
			row.MedianA, row.SpreadA = summary(va)
			row.MedianB, row.SpreadB = summary(vb)
			row.Ratio = row.MedianB / row.MedianA
			worse := row.Ratio > 1+m.Bound
			if m.Better == "higher" {
				worse = row.Ratio < 1-m.Bound
			}
			switch {
			case allBetter(va, vb, m.Better == "higher"):
				row.Verdict = verdictOK
			case math.Max(row.SpreadA, row.SpreadB) > m.Bound:
				row.Verdict = verdictUnresolved
			case worse:
				row.Verdict = verdictRegressed
			default:
				row.Verdict = verdictOK
			}
			rows = append(rows, row)
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("the two result sets share no untraced workload")
	}
	return rows, nil
}

func values(recs []*Record, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// summary is the median and the quartile spread (0 for a single value).
func summary(xs []float64) (med, spr float64) {
	med = median(xs)
	if s, err := spread(xs); err == nil {
		spr = s
	}
	return med, spr
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(a, b []float64, higher bool) bool {
	sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	if higher {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// digestMismatches lists the (workload, seed) pairs whose runs disagree on
// answer_digest, within or across the two sets.
func digestMismatches(a, b []*Record) []string {
	seen := map[string]string{}
	var out []string
	for _, r := range append(append([]*Record(nil), a...), b...) {
		key := fmt.Sprintf("%s seed %d", r.Workload, r.Seed)
		if d, ok := seen[key]; ok && d != r.AnswerDigest {
			out = append(out, key)
			continue
		}
		seen[key] = r.AnswerDigest
	}
	return out
}

// runCompare prints the comparison of two results files; it fails on any
// regressed or unresolved pair and on a digest mismatch.
func runCompare(pathA, pathB string, stdout, stderr io.Writer) int {
	s, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	a, err := readRecords(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	b, err := readRecords(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	rows, err := compareRecords(s, a, b)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	code := 0
	fmt.Fprintf(stdout, "%-16s %-16s %12s %12s %8s %8s %7s %6s  %s\n",
		"workload", "metric", "median A", "median B", "spread A", "spread B", "B/A", "bound", "verdict")
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-16s %-16s %12.4f %12.4f %8.3f %8.3f %7.3f %6.2f  %s\n",
			r.Workload, r.Metric, r.MedianA, r.MedianB, r.SpreadA, r.SpreadB, r.Ratio, r.Bound, r.Verdict)
		if r.Verdict != verdictOK {
			code = 1
		}
	}
	if bad := digestMismatches(a, b); len(bad) > 0 {
		for _, k := range bad {
			fmt.Fprintf(stdout, "answer_digest differs: %s\n", k)
		}
		code = 1
	} else {
		fmt.Fprintln(stdout, "answer_digest: equal for every workload and seed")
	}
	return code
}
