package skysr

import (
	"sync"
	"testing"
)

// TestEngineConcurrentSearch verifies the documented guarantee: one Engine
// may serve Search calls from many goroutines (run under -race).
func TestEngineConcurrentSearch(t *testing.T) {
	eng, vq, catNames := PaperExample()
	via := make([]Requirement, len(catNames))
	for i, n := range catNames {
		via[i] = Category(n)
	}
	q := Query{Start: vq, Via: via}
	want, err := eng.Search(q)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				// Alternate plain and indexed searches to also race the
				// lazy index build.
				opts := SearchOptions{UseCategoryIndex: rep%2 == 0}
				ans, err := eng.SearchWith(q, opts)
				if err != nil {
					t.Error(err)
					return
				}
				if len(ans.Routes) != len(want.Routes) {
					t.Errorf("concurrent result = %d routes, want %d", len(ans.Routes), len(want.Routes))
					return
				}
				for i := range ans.Routes {
					if ans.Routes[i].LengthScore != want.Routes[i].LengthScore {
						t.Error("concurrent result differs")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
