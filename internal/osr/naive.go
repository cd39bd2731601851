package osr

import (
	"fmt"
	"sort"

	"skysr/internal/graph"
	"skysr/internal/route"
	"skysr/internal/taxonomy"
)

// SkySR answers a SkySR query the naive way described in §4: execute one
// OSR query for every super-category sequence of cats, score each returned
// route against the original sequence, and keep the skyline. The number of
// OSR queries grows with the product of the category depths, which is the
// cost the paper's evaluation demonstrates (Figure 3).
//
// Correctness caveat (tested in naive_test.go):
// this enumeration is exact under the paper's experimental protocol —
// query categories are tree leaves and all leaves of a tree sit at equal
// depth — because the similarity of every PoI in P_a is then bounded below
// by the similarity at ancestor level a. With uneven leaf depths the OSR
// winner for an ancestor can shadow a slightly farther PoI with strictly
// better similarity, missing a skyline route; SkySRExact closes that gap.
func (s *Solver) SkySR(start graph.VertexID, cats []taxonomy.CategoryID) (*route.Skyline, error) {
	if len(cats) == 0 {
		return nil, fmt.Errorf("osr: empty category sequence")
	}
	f := s.d.Forest
	scoreSeq := route.NewCategorySequence(f, s.sim, cats...)
	sky := route.NewSkyline()
	for _, superseq := range f.SuperSequences(cats) {
		r, err := s.OSR(start, superseq, scoreSeq)
		if err != nil {
			return nil, err
		}
		if r != nil {
			sky.Update(r)
		}
	}
	return sky, nil
}

// SkySRExact is the exact generalization of SkySR: instead of ancestor
// categories it enumerates, per position, every achievable similarity
// level ℓ and runs an OSR query over the candidate sets
// {p : sim(c_i, cat(p)) ≥ ℓ_i}. For forests whose leaves sit at uniform
// depth the level sets coincide with the ancestor sets, so this is the
// same baseline; for uneven forests it is strictly exact: the winner for
// the level signature of any sequenced route R has pointwise-greater
// similarities and no greater length, so it dominates or equals R.
func (s *Solver) SkySRExact(start graph.VertexID, cats []taxonomy.CategoryID) (*route.Skyline, error) {
	if len(cats) == 0 {
		return nil, fmt.Errorf("osr: empty category sequence")
	}
	f := s.d.Forest
	scoreSeq := route.NewCategorySequence(f, s.sim, cats...)

	// Distinct achievable similarity levels per position, descending.
	levels := make([][]float64, len(cats))
	for i, c := range cats {
		seen := map[float64]bool{}
		for _, other := range f.Subtree(f.Root(c)) {
			if h := s.sim(c, other); h > 0 {
				seen[h] = true
			}
		}
		for h := range seen {
			levels[i] = append(levels[i], h)
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(levels[i])))
		if len(levels[i]) == 0 {
			return route.NewSkyline(), nil // no matching PoIs possible
		}
	}

	sky := route.NewSkyline()
	idx := make([]int, len(cats))
	for {
		specs := make([]posSpec, len(cats))
		for i, c := range cats {
			specs[i] = s.levelSpec(c, levels[i][idx[i]])
		}
		r, err := s.solve(start, specs, scoreSeq)
		if err != nil {
			return nil, err
		}
		if r != nil {
			sky.Update(r)
		}
		pos := len(cats) - 1
		for pos >= 0 {
			idx[pos]++
			if idx[pos] < len(levels[pos]) {
				break
			}
			idx[pos] = 0
			pos--
		}
		if pos < 0 {
			return sky, nil
		}
	}
}
