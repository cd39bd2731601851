package index

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"skysr/internal/graph"
	"skysr/internal/taxonomy"
)

// buildProcs are the GOMAXPROCS settings the build-round tests compare:
// at 1 a round runs on the calling goroutine, at 4 on parallel workers.
var buildProcs = []int{1, 4}

// atProcs runs f with GOMAXPROCS set to procs.
func atProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// allCategories lists every category id of f.
func allCategories(f *taxonomy.Forest) []taxonomy.CategoryID {
	all := make([]taxonomy.CategoryID, f.NumCategories())
	for c := range all {
		all[c] = taxonomy.CategoryID(c)
	}
	return all
}

// sameRows fails the test unless a and b hold the same rows, bit for bit.
func sameRows(t *testing.T, label string, a, b *CategoryDistances) {
	t.Helper()
	for c := taxonomy.CategoryID(0); int(c) < a.NumCategories(); c++ {
		ra, rb := a.RowIfBuilt(c), b.RowIfBuilt(c)
		if (ra == nil) != (rb == nil) {
			t.Fatalf("%s: category %d resident %v, want %v", label, c, ra != nil, rb != nil)
		}
		for v := range ra {
			if math.Float32bits(ra[v]) != math.Float32bits(rb[v]) {
				t.Fatalf("%s: category %d vertex %d: %v, want %v", label, c, v, ra[v], rb[v])
			}
		}
	}
}

// TestParallelPrewarm: a Prewarm round over a list with repeats, ids
// outside the forest and a budget that admits only part of it builds the
// same rows, returns the same count and leaves the same Stats as Row calls
// over the distinct ids in request order.
func TestParallelPrewarm(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	f := taxonomy.Generated(3, 2, 2)
	n := f.NumCategories()
	for _, directed := range []bool{false, true} {
		d := randomDataset(rng, f, 60, 20, directed)
		var list []taxonomy.CategoryID
		for _, c := range rng.Perm(n) {
			list = append(list, taxonomy.CategoryID(c))
			if rng.Intn(3) == 0 {
				list = append(list, list[rng.Intn(len(list))])
			}
		}
		list = append(list, taxonomy.NoCategory, taxonomy.CategoryID(n), list[0])
		resident := list[3] // built before the round, so not built again
		for _, budgetRows := range []int64{int64(n), int64(n) / 2, 1} {
			budget := budgetRows * int64(d.Graph.NumVertices()) * 4
			ref := New(d, budget)
			ref.Row(resident)
			want := 0
			seen := map[taxonomy.CategoryID]bool{}
			for _, c := range list {
				if int(c) >= 0 && int(c) < n && !seen[c] {
					seen[c] = true
					if ref.Row(c) != nil {
						want++
					}
				}
			}
			for _, procs := range buildProcs {
				ci := New(d, budget)
				ci.Row(resident)
				var got int
				atProcs(procs, func() { got = ci.Prewarm(list...) })
				if got != want || ci.Stats() != ref.Stats() {
					t.Fatalf("directed=%v budget %d rows, GOMAXPROCS %d: Prewarm = %d with %+v, want %d with %+v",
						directed, budgetRows, procs, got, ci.Stats(), want, ref.Stats())
				}
				sameRows(t, "Prewarm", ci, ref)
			}
		}
	}
}

// TestParallelEvolve: Evolve's parallel round rebuilds the rows a PoI
// left, repairs the rows shortened arcs and joining PoIs can lower, and
// carries the rest, with the same rows and counts at every worker count.
func TestParallelEvolve(t *testing.T) {
	const trials, batches = 12, 4
	rng := rand.New(rand.NewSource(92))
	f := taxonomy.Generated(3, 2, 2)
	var left, joined, shortened, carried, repaired int
	for trial := 0; trial < trials; trial++ {
		d := randomDataset(rng, f, 50, 18, trial%2 == 1)
		ci := New(d, 0)
		for c := taxonomy.CategoryID(0); int(c) < f.NumCategories(); c++ {
			if rng.Intn(4) > 0 {
				ci.Row(c)
			}
		}
		for b := 0; b < batches; b++ {
			edits, dirty := randomBatch(rng, d)
			d2, err := d.Apply(edits)
			if err != nil {
				t.Fatal(err)
			}
			l, j := ci.membershipChanges(d2, dirty.PoIs)
			for c := range l {
				if ci.RowIfBuilt(taxonomy.CategoryID(c)) == nil {
					continue
				}
				if l[c] {
					left++
				}
				if len(j[c]) > 0 {
					joined++
				}
			}
			shortened += len(dirty.Shortened)

			var evolved []*CategoryDistances
			for _, procs := range buildProcs {
				atProcs(procs, func() { evolved = append(evolved, ci.Evolve(d2, dirty)) })
			}
			serial, parallel := evolved[0], evolved[1]
			if serial.Stats() != parallel.Stats() {
				t.Fatalf("trial %d batch %d: Stats %+v in parallel, %+v serially", trial, b, parallel.Stats(), serial.Stats())
			}
			sameRows(t, "Evolve", parallel, serial)
			carried += serial.Stats().RowsCarried
			repaired += int(serial.Stats().RowsRepaired)
			ci, d = parallel, d2
		}
	}
	if left == 0 || joined == 0 || shortened == 0 || carried == 0 || repaired == 0 {
		t.Fatalf("batches exercised %d left, %d joined, %d shortened, %d carried and %d repaired rows; want each > 0",
			left, joined, shortened, carried, repaired)
	}
}

// TestParallelRowRace: Row calls for every category race a Prewarm of all
// of them. No row is built twice: every caller gets the published row,
// and the footprint counts each row once.
func TestParallelRowRace(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	f := taxonomy.Generated(3, 2, 2)
	n := f.NumCategories()
	all := allCategories(f)
	for _, directed := range []bool{false, true} {
		d := randomDataset(rng, f, 80, 25, directed)
		for _, procs := range buildProcs {
			atProcs(procs, func() {
				ci := New(d, 0)
				const callers = 6
				got := make([][]Row, callers)
				orders := make([][]int, callers)
				for i := range orders {
					orders[i] = rng.Perm(n)
				}
				start := make(chan struct{})
				var wg sync.WaitGroup
				var warmed int
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					warmed = ci.Prewarm(all...)
				}()
				for i := 0; i < callers; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						got[i] = make([]Row, n)
						for _, c := range orders[i] {
							got[i][c] = ci.Row(taxonomy.CategoryID(c))
						}
					}()
				}
				close(start)
				wg.Wait()

				st := ci.Stats()
				if warmed != n || st.RowsBuilt != n || st.Bytes != int64(n)*ci.rowBytes() {
					t.Fatalf("directed=%v GOMAXPROCS %d: Prewarm = %d, Stats %+v; want %d rows of %d bytes each",
						directed, procs, warmed, st, n, ci.rowBytes())
				}
				for i := range got {
					for c, r := range got[i] {
						if pub := ci.RowIfBuilt(taxonomy.CategoryID(c)); len(r) == 0 || &r[0] != &pub[0] {
							t.Fatalf("directed=%v GOMAXPROCS %d: caller %d got a row for category %d that is not the published one",
								directed, procs, i, c)
						}
					}
				}
			})
		}
	}
}

// TestParallelBuildPanic: a sweep that panics (here on a source outside
// the graph) stops its round and panics again on the caller once every
// worker has returned: a round started right after it, on the same
// index and its kept workspace, builds every row right, and no goroutine
// is left behind.
func TestParallelBuildPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	f := taxonomy.Generated(3, 2, 2)
	all := allCategories(f)
	for _, directed := range []bool{false, true} {
		d := randomDataset(rng, f, 3000, 40, directed)
		want := New(d, 0)
		atProcs(1, func() { want.Prewarm(all...) })
		for _, procs := range buildProcs {
			atProcs(procs, func() {
				ci := New(d, 0)
				var sweeps []sweep
				for _, c := range all {
					sweeps = append(sweeps, sweep{cat: c, sources: d.PoIsAssociated(c)})
				}
				sweeps[1].sources = []graph.VertexID{graph.VertexID(d.Graph.NumVertices() + 3)}
				base := runtime.NumGoroutine()

				p := func() (p any) {
					defer func() { p = recover() }()
					ci.buildMu.Lock()
					defer ci.buildMu.Unlock()
					ci.sweepLocked(sweeps)
					return nil
				}()
				if err, ok := p.(runtime.Error); !ok || !strings.Contains(err.Error(), "index out of range") {
					t.Fatalf("directed=%v GOMAXPROCS %d: recovered %v, want the sweep's index-out-of-range panic", directed, procs, p)
				}
				if got := ci.Prewarm(all...); got != len(all) {
					t.Fatalf("directed=%v GOMAXPROCS %d: %d rows after a panicked round, want %d", directed, procs, got, len(all))
				}
				sameRows(t, "after a panicked round", ci, want)
				waitGoroutines(t, base)
			})
		}
	}
}

// waitGoroutines waits until no more than base goroutines run: a worker
// may still be unwinding after its WaitGroup.Done.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines left, started with %d\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
