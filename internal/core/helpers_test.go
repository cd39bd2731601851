package core

import (
	"testing"

	"skysr/internal/dataset"
	"skysr/internal/geo"
	"skysr/internal/graph"
	"skysr/internal/taxonomy"
)

func geoPoint(x float64) geo.Point { return geo.Point{Lon: x} }

// payAllRows credits every row key c has seen missed with more rent than
// any row costs, so the next query that misses one builds it (see
// Searcher.sharedPotentials).
func payAllRows(c *SharedCache) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key := range c.missed {
		c.missed[key] = 1 << 40
	}
}

func mustDataset(t *testing.T, b *graph.Builder, f *taxonomy.Forest) *dataset.Dataset {
	t.Helper()
	d, err := dataset.New("test", b.Build(), f)
	if err != nil {
		t.Fatal(err)
	}
	return d
}
