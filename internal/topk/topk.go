// Package topk generalizes the paper's skyline sequenced-route answer
// (Definition 4.2) to ranked top-k enumeration: instead of the single
// shortest route per Pareto-optimal similarity level, the answer carries
// the k shortest score-distinct routes per level — the k-skyband of the
// achieved (length score, semantic score) points.
//
// Formally, a complete route R with score point P = (l(R), s(R)) belongs
// to the top-k answer iff fewer than k achieved points P' ≠ P satisfy
// P' ≤ P componentwise, where a point is "achieved" when any valid
// sequenced route of the query attains it. With k = 1 this is exactly the
// skyline: a point survives iff nothing dominates or equals it. Like the
// paper's S, the answer carries one representative route per score point
// (the first one found), so ranked alternatives are score-distinct.
//
// Skyband is the drop-in replacement for route.Skyline that the core
// search loop installs when k > 1. It keeps the whole branch-and-bound
// machinery exact while relaxing every cut from "the best" to "the
// k-th best": Threshold returns the k-th smallest length per similarity
// level (so Eq. 3 termination, the Eq. 4/5 lower bounds and the
// Lemma 5.8 increment all prune against the k-th-best length), and
// CoversPoint is the k-witness test the §5.3.3 rules use. The one
// classic optimization that does NOT survive the generalization is the
// Lemma 5.5 path filter — a candidate reached through a more-similar PoI
// yields a dominated route, and dominated routes are precisely what a
// k-band must keep — so the core search disables it for k > 1.
package topk

import (
	"math"
	"sort"

	"skysr/internal/route"
)

// Skyband maintains the k-skyband of the complete routes found so far:
// one representative route per accepted score point, every point
// componentwise-≤ fewer than k other accepted points. Bands stay small
// (at most k routes per surviving similarity level), so linear scans
// remain the right structure, as they are for the classic skyline.
type Skyband struct {
	k         int
	routes    []*route.Route
	evictions int64

	sel  []float64 // scratch: the k smallest lengths seen by Threshold
	dead []bool    // scratch: eviction marks of one Update pass
}

// NewSkyband returns an empty band keeping the k best score points per
// similarity level. k < 1 is treated as 1, where the band's accept,
// evict and threshold semantics coincide exactly with route.Skyline.
func NewSkyband(k int) *Skyband {
	if k < 1 {
		k = 1
	}
	return &Skyband{k: k}
}

// K returns the band's k.
func (b *Skyband) K() int { return b.k }

// Len returns the number of member routes (= accepted score points).
func (b *Skyband) Len() int { return len(b.routes) }

// Evictions returns how many accepted routes were later pushed out of
// the band by better-scoring discoveries — the churn counter behind the
// Stats.TopKEvictions instrumentation.
func (b *Skyband) Evictions() int64 { return b.evictions }

// Levels returns the number of distinct similarity levels (semantic
// scores) represented in the band.
func (b *Skyband) Levels() int {
	seen := make(map[float64]struct{}, len(b.routes))
	for _, m := range b.routes {
		seen[m.Semantic()] = struct{}{}
	}
	return len(seen)
}

// countLE returns |{members m : l(m) ≤ l ∧ s(m) ≤ sem}| — the number of
// accepted points that would dominate-or-equal a route scoring (l, sem).
func (b *Skyband) countLE(l, sem float64) int {
	n := 0
	for _, m := range b.routes {
		if m.Length() <= l && m.Semantic() <= sem {
			n++
		}
	}
	return n
}

// CoversPoint reports that at least k accepted points are componentwise
// ≤ (l, sem): every completion scoring there (or worse) is outside the
// band, whatever routes are still to be found. It is the k-witness form
// of the Lemma 5.8 membership test.
func (b *Skyband) CoversPoint(l, sem float64) bool {
	n := 0
	for _, m := range b.routes {
		if m.Length() <= l && m.Semantic() <= sem {
			n++
			if n >= b.k {
				return true
			}
		}
	}
	return false
}

// Threshold returns the k-th-best form of the Eq. 3 threshold l̄: the
// k-th smallest length among accepted points whose semantic score is
// ≤ sem, or +Inf when fewer than k qualify. A route with semantic score
// sem is dead once its length reaches it — the band already holds k
// points that dominate-or-equal anything it could complete into.
func (b *Skyband) Threshold(sem float64) float64 {
	sel := b.sel[:0]
	for _, m := range b.routes {
		if m.Semantic() > sem {
			continue
		}
		l := m.Length()
		if len(sel) == b.k {
			if l >= sel[b.k-1] {
				continue
			}
			sel = sel[:b.k-1] // drop the current k-th, insert below
		}
		i := sort.SearchFloat64s(sel, l)
		sel = append(sel, 0)
		copy(sel[i+1:], sel[i:len(sel)-1])
		sel[i] = l
	}
	b.sel = sel[:0]
	if len(sel) < b.k {
		return math.Inf(1)
	}
	return sel[b.k-1]
}

// ThresholdPerfect returns Threshold(0), the k-th-best l̄(∅) that the
// Algorithm 4 radius restriction uses: every route still able to enter
// the band keeps all its PoIs within that distance of the start.
func (b *Skyband) ThresholdPerfect() float64 { return b.Threshold(0) }

// BestThreshold returns the classic (k = 1) threshold — the smallest
// member length at similarity level ≤ sem. The search uses it to count
// the extra pops a k > 1 run performs beyond what a skyline run would.
func (b *Skyband) BestThreshold(sem float64) float64 {
	best := math.Inf(1)
	for _, m := range b.routes {
		if m.Semantic() <= sem && m.Length() < best {
			best = m.Length()
		}
	}
	return best
}

// Update inserts r unless its score point is already represented or at
// least k accepted points dominate-or-equal it; on insertion, members
// the new point pushes out of the band are evicted. It reports whether
// the band changed. With k = 1 this is exactly route.Skyline.Update:
// reject when dominated-or-equivalent, evict what the new route
// dominates.
func (b *Skyband) Update(r *route.Route) bool {
	l, s := r.Length(), r.Semantic()
	for _, m := range b.routes {
		if m.Length() == l && m.Semantic() == s {
			return false // point already represented; first route wins
		}
	}
	if b.CoversPoint(l, s) {
		return false
	}
	b.routes = append(b.routes, r)
	// Eviction pass. Counts are taken over the full pre-eviction set:
	// an evictee still witnesses against points above it, but its own
	// ≥ k dominators sit below it and transfer to them, so marking
	// everything first and compacting once cannot over- or under-evict.
	// Only members the new point is ≤ of can have changed their count;
	// a member's own ≤-count includes itself, hence the −1.
	dead := b.dead[:0]
	evict := false
	for _, m := range b.routes {
		d := m != r && l <= m.Length() && s <= m.Semantic() &&
			b.countLE(m.Length(), m.Semantic())-1 >= b.k
		dead = append(dead, d)
		evict = evict || d
	}
	b.dead = dead[:0]
	if evict {
		keep := b.routes[:0]
		for i, m := range b.routes {
			if dead[i] {
				b.evictions++
				continue
			}
			keep = append(keep, m)
		}
		b.routes = keep
	}
	return true
}

// Routes returns the member routes ranked for the answer: ascending
// length, ties by ascending semantic score. Score points are distinct,
// so the order is total and deterministic.
func (b *Skyband) Routes() []*route.Route {
	out := append([]*route.Route(nil), b.routes...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Length() != out[j].Length() {
			return out[i].Length() < out[j].Length()
		}
		return out[i].Semantic() < out[j].Semantic()
	})
	return out
}
