package taxonomy

import (
	"math/rand"
	"testing"
)

// TestAncestryConsistency: IsAncestorOrSelf must agree with membership in
// the Ancestors list, and LCA must be the deepest common ancestor.
func TestAncestryConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	f := Generated(3, 3, 4)
	n := f.NumCategories()
	for trial := 0; trial < 3000; trial++ {
		a := CategoryID(rng.Intn(n))
		c := CategoryID(rng.Intn(n))
		inList := false
		for _, anc := range f.Ancestors(c) {
			if anc == a {
				inList = true
				break
			}
		}
		if got := f.IsAncestorOrSelf(a, c); got != inList {
			t.Fatalf("IsAncestorOrSelf(%d, %d) = %v, ancestor list says %v", a, c, got, inList)
		}
		lca := f.LCA(a, c)
		if !f.SameTree(a, c) {
			if lca != NoCategory {
				t.Fatalf("cross-tree LCA(%d,%d) = %d", a, c, lca)
			}
			continue
		}
		// The LCA must be a common ancestor...
		if !f.IsAncestorOrSelf(lca, a) || !f.IsAncestorOrSelf(lca, c) {
			t.Fatalf("LCA(%d,%d)=%d is not a common ancestor", a, c, lca)
		}
		// ...and no deeper category may be one.
		for _, anc := range f.Ancestors(a) {
			if f.Depth(anc) > f.Depth(lca) && f.IsAncestorOrSelf(anc, c) {
				t.Fatalf("deeper common ancestor %d than LCA %d for (%d,%d)", anc, lca, a, c)
			}
		}
	}
}

// TestSuperSequenceCountMatchesEnumeration on random sequences.
func TestSuperSequenceCountMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	f := Generated(3, 2, 4)
	leaves := f.Leaves()
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(3)
		seq := make([]CategoryID, k)
		for i := range seq {
			seq[i] = leaves[rng.Intn(len(leaves))]
		}
		enum := f.SuperSequences(seq)
		if len(enum) != f.CountSuperSequences(seq) {
			t.Fatalf("enumeration %d != count %d for %v", len(enum), f.CountSuperSequences(seq), seq)
		}
	}
}

// TestSubtreeIsClosedUnderChildren: every child of a subtree member is in
// the subtree, and membership matches IsAncestorOrSelf.
func TestSubtreeIsClosedUnderChildren(t *testing.T) {
	f := Generated(2, 3, 3)
	for c := CategoryID(0); int(c) < f.NumCategories(); c++ {
		sub := f.Subtree(c)
		member := map[CategoryID]bool{}
		for _, m := range sub {
			member[m] = true
		}
		for _, m := range sub {
			for _, ch := range f.Children(m) {
				if !member[ch] {
					t.Fatalf("subtree(%d) missing child %d of %d", c, ch, m)
				}
			}
		}
		for other := CategoryID(0); int(other) < f.NumCategories(); other++ {
			if member[other] != f.IsAncestorOrSelf(c, other) {
				t.Fatalf("subtree membership of %d in subtree(%d) inconsistent", other, c)
			}
		}
	}
}

// TestWuPalmerMonotoneInLCADepth: with uniform leaf depth, a deeper LCA
// must never give a smaller similarity — the property that makes the
// paper's ancestor-enumeration baseline exact (see the correctness caveat
// on osr.Solver.SkySR).
func TestWuPalmerMonotoneInLCADepth(t *testing.T) {
	f := Generated(1, 3, 4)
	leaves := f.Leaves()
	base := leaves[0]
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 500; trial++ {
		x := leaves[rng.Intn(len(leaves))]
		y := leaves[rng.Intn(len(leaves))]
		dx := f.Depth(f.LCA(base, x))
		dy := f.Depth(f.LCA(base, y))
		sx := f.WuPalmer(base, x)
		sy := f.WuPalmer(base, y)
		if dx > dy && sx < sy {
			t.Fatalf("deeper LCA gave smaller similarity: lca depths %d>%d, sims %v<%v", dx, dy, sx, sy)
		}
	}
}
