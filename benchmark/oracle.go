package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"path/filepath"
	"sort"

	"skysr"
)

// The oracle: every tenth query of a workload's plan prefix is answered
// by the system under test and by plain BSSR — no index, no sharing — on
// an engine freshly opened from the dataset the answers must hold for.
// Score points must agree bit for bit; which of several equal-score
// routes represents a point is not compared. The digest hashes the
// checked answers in plan order, so two runs with the same seed must
// print the same digest.

// point is one route's (length, semantic) score.
type point struct{ Length, Semantic float64 }

func pointsOf(ans *skysr.Answer) []point {
	out := make([]point, len(ans.Routes))
	for i, r := range ans.Routes {
		out[i] = point{r.LengthScore, r.SemanticScore}
	}
	sortPoints(out)
	return out
}

func sortPoints(ps []point) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Length != ps[j].Length {
			return ps[i].Length < ps[j].Length
		}
		return ps[i].Semantic < ps[j].Semantic
	})
}

func samePoints(a, b []point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].Length) != math.Float64bits(b[i].Length) ||
			math.Float64bits(a[i].Semantic) != math.Float64bits(b[i].Semantic) {
			return false
		}
	}
	return true
}

// sampleIndices is the oracle sample of a plan: every tenth query below
// limit.
func sampleIndices(plan *Plan, limit int) []int {
	var idx []int
	for i := 0; i < min(limit, len(plan.Queries)); i += 10 {
		idx = append(idx, i)
	}
	return idx
}

// digest hashes answers in order.
func digest(idx []int, answers [][]point) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for j, ps := range answers {
		put(uint64(idx[j]))
		put(uint64(len(ps)))
		for _, p := range ps {
			put(math.Float64bits(p.Length))
			put(math.Float64bits(p.Semantic))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// oracleCheck is one comparison of the sample.
type oracleCheck struct {
	Label      string `json:"label"`
	Checked    int    `json:"checked"`
	Mismatched int    `json:"mismatched"`
	Digest     string `json:"digest"`
}

// checkAnswers compares eval's answers for the sample against plain BSSR
// on a fresh engine opened from datasetPath.
func checkAnswers(label string, plan *Plan, idx []int, datasetPath string, eval func([]int) ([][]point, error)) (oracleCheck, error) {
	got, err := eval(idx)
	if err != nil {
		return oracleCheck{}, fmt.Errorf("oracle %s: system under test: %w", label, err)
	}
	ref, err := skysr.Open(datasetPath)
	if err != nil {
		return oracleCheck{}, fmt.Errorf("oracle %s: %w", label, err)
	}
	chk := oracleCheck{Label: label, Checked: len(idx), Digest: digest(idx, got)}
	for j, i := range idx {
		pq := plan.Queries[i%len(plan.Queries)]
		ans, err := ref.SearchWith(plan.query(i), skysr.SearchOptions{TopK: pq.K, DepartAt: pq.Depart})
		if err != nil {
			return oracleCheck{}, fmt.Errorf("oracle %s: reference query %d: %w", label, i, err)
		}
		if !samePoints(got[j], pointsOf(ans)) {
			chk.Mismatched++
		}
	}
	return chk, nil
}

// verifyLive checks the live engine against a fresh engine opened from a
// snapshot of its current dataset.
func (c *child) verifyLive(label string, eng *skysr.Engine, eval func([]int) ([][]point, error)) error {
	path := filepath.Join(c.in.Dir, "snapshot-"+label+".skysrb")
	if err := eng.SaveBinary(path); err != nil {
		return fmt.Errorf("snapshot for oracle: %w", err)
	}
	return c.verify(label, path, eval)
}
