// Quickstart: the paper's running example (Figure 1, Example 1.1,
// Table 4). Builds the 13-PoI road network, asks for ⟨Asian Restaurant,
// Arts & Entertainment, Gift Shop⟩ from vq, and prints the skyline:
// the strictly matching route and the shorter semantically matching one.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"skysr"
)

func main() {
	eng, vq, categories := skysr.PaperExample()
	fmt.Println("network:", eng.Stats())
	fmt.Printf("query:   start v%d via %v\n\n", vq, categories)

	via := make([]skysr.Requirement, len(categories))
	for i, c := range categories {
		via[i] = skysr.Category(c)
	}
	ans, err := eng.SearchWith(
		skysr.Query{Start: vq, Via: via},
		skysr.SearchOptions{ExpandPaths: true},
	)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%d skyline sequenced routes (found in %s):\n", len(ans.Routes), ans.Elapsed)
	for i, r := range ans.Routes {
		fmt.Printf("%2d. %s\n", i+1, r)
		fmt.Printf("    full path: %v\n", r.Path)
	}

	// The route with semantic score 0 matches the request literally;
	// the other swaps the Asian restaurant for an Italian one (same Food
	// tree) and is shorter — exactly the paper's Table 4 outcome.
	st := ans.Stats
	fmt.Printf("\ninstrumentation: NNinit seeded %d routes (perfect route length %.1f),\n",
		st.InitRoutes, st.InitPerfectL)
	fmt.Printf("  %d modified-Dijkstra runs (%d served from cache), %d vertices settled\n",
		st.MDijkstraRuns, st.CacheHits, st.SettledVertices)
}
