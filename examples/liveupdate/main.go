// Live updates: the engine serving while its road network changes. A
// small town has two sushi restaurants — one close, one farther away.
// First the close one wins; then rush-hour congestion triples the road
// to it (SetEdgeWeight) and the skyline reroutes; then the far one shuts
// down entirely (RemovePoI) and the original route comes back despite the
// traffic. Each ApplyUpdates batch publishes a new dataset epoch:
// in-flight queries keep the snapshot they started on, later queries see
// the new version, and the category-level distance index is repaired
// incrementally instead of rebuilt (the printed stats show the rows each
// update carried across versus the rows it repaired or rebuilt).
//
// Run with: go run ./examples/liveupdate
package main

import (
	"fmt"
	"log"

	"skysr"
)

func main() {
	eng := buildTown()
	query := skysr.Query{
		Start: 0,
		Via:   []skysr.Requirement{skysr.Category("Sushi Restaurant"), skysr.Category("Gift Shop")},
	}
	opts := skysr.SearchOptions{UseCategoryIndex: true}
	if _, err := eng.WarmCategoryIndex(); err != nil {
		log.Fatal(err)
	}

	show := func(phase string) {
		ans, err := eng.SearchWith(query, opts)
		if err != nil {
			log.Fatal(err)
		}
		st := eng.CategoryIndexStats()
		fmt.Printf("%s (epoch %d):\n", phase, eng.Epoch())
		for _, r := range ans.Routes {
			fmt.Printf("  %s\n", r)
		}
		fmt.Printf("  index: %d rows resident, %d carried over, %d repaired\n\n",
			st.RowsBuilt, st.RowsCarried, st.RowsRepaired)
	}

	show("before any update")

	// Rush hour: the shortcut to the close sushi place triples in cost.
	// A weight increase cannot invalidate any distance lower bound, so
	// every index row is carried into the new epoch unchanged.
	res, err := eng.ApplyUpdates(new(skysr.UpdateBatch).SetEdgeWeight(0, 1, 9))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("update #1: congestion on road 0–1 → epoch %d, %d rows carried, %d dirtied\n\n",
		res.Epoch, res.RowsCarried, res.RowsDirtied)
	show("after congestion")

	// The far sushi restaurant closes. Only the rows of the categories it
	// belonged to (Sushi Restaurant and its ancestors) are dirtied;
	// ApplyUpdates rebuilds them before it publishes the new epoch.
	res, err = eng.ApplyUpdates(new(skysr.UpdateBatch).RemovePoI(2))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("update #2: sushi place @2 closes → epoch %d, %d rows carried, %d dirtied\n\n",
		res.Epoch, res.RowsCarried, res.RowsDirtied)
	show("after the closure")

	fmt.Printf("the engine served all three phases from one process; %d snapshot(s) live\n",
		eng.LiveSnapshots())
}

// buildTown assembles the example network:
//
//	start(0) --1-- sushi(1) --2-- gifts(3)
//	start(0) --4-- sushi(2) --2-- gifts(3)   (the long way around)
func buildTown() *skysr.Engine {
	nb := skysr.NewFoursquareNetworkBuilder("liveupdate-town")
	start := nb.AddVertex(0, 0)
	near, err := nb.AddPoI(1, 0, "Sushi Restaurant")
	check(err)
	far, err := nb.AddPoI(0, 1, "Sushi Restaurant")
	check(err)
	gifts, err := nb.AddPoI(1, 1, "Gift Shop")
	check(err)
	check(nb.AddRoad(start, near, 1))
	check(nb.AddRoad(start, far, 4))
	check(nb.AddRoad(near, gifts, 2))
	check(nb.AddRoad(far, gifts, 2))
	eng, err := nb.Build()
	check(err)
	return eng
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
