package main

import (
	"strconv"
	"testing"

	"skysr"
)

// pinnedInputs are the sha256 fingerprints of every workload's inputs at
// toy scale and seed 42. A change to the generators (internal/gen) or the
// binary dataset format that alters what a workload measures fails here
// rather than silently moving the baseline; when such a change is meant,
// re-pin the values and re-measure the baseline.
var pinnedInputs = map[string]map[string]string{
	"serve-ordered": {
		datasetFile: "78b4f90bdc4c0e8e4a00e6418a0b003feaa3fc828b49e0efaf43cf79035baa8f",
		planFile:    "993cb6433111b810b1e909d048e9f4ad02b49db2cd6887dd71325745e9607f48",
	},
	"dest-osm": {
		datasetFile: "04b3a7c311fea9ec6d8f68d6cee99d3fd22908fdc25c58a1aa6418b6d4683666",
		planFile:    "b72a7ee0d5694b7d7f6c6b657b14d7d21f47ea9be44e10d91fe95cc6b220e46e",
	},
	"unordered-tokyo": {
		datasetFile: "1c55acf9cd15ab9bafd6bd0494137c1661167c480d24af5377e1423a5d094e10",
		planFile:    "2aaeaa5286caa35605a980f3eef92e8b56c96ba54f145f3fee0a794459e50786",
	},
	"batch-nyc": {
		datasetFile: "a6d36563086ef2ae3178db131deb5d6d42c0596ca2fde413fb77716bafda99ae",
		planFile:    "026d2cf1253b20c6641d41c3b6d26e5fcaed2922908859cf83a002ca42c57874",
	},
	"live-traffic": {
		datasetFile: "558160bc7cf6b971926d37b3771286d20d2967446f3b737d7129a285b4e56b53",
		planFile:    "cf4857dc056bd8b7ad35d558aa5041c5397a433d29ddb18c64198b2a61dff88a",
	},
}

func TestInputFingerprints(t *testing.T) {
	scale, err := strconv.ParseFloat(toyScale, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		in, err := generate(w, 42, scale, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for file, sum := range in.Fingerprints {
			if want := pinnedInputs[w.name][file]; sum != want {
				t.Errorf("%s %s: sha256 %s, pinned %s", w.name, file, sum, want)
			}
		}
	}
}

func TestUpdateStreamAppliesCleanly(t *testing.T) {
	w, err := workloadByName("live-traffic")
	if err != nil {
		t.Fatal(err)
	}
	in, err := generate(w, 3, 0.1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := skysr.Open(in.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	// Two passes over the stream: replaying it must stay valid.
	for round := 0; round < 2; round++ {
		for j, edits := range in.Plan.Updates {
			b, err := updateBatch(eng, edits)
			if err != nil {
				t.Fatalf("round %d batch %d: %v", round, j, err)
			}
			res, err := eng.ApplyUpdates(b)
			if err != nil {
				t.Fatalf("round %d batch %d: %v", round, j, err)
			}
			if wantLower := j%5 == 4; res.IndexInvalidated != wantLower {
				t.Fatalf("round %d batch %d: index invalidated %v, want %v", round, j, res.IndexInvalidated, wantLower)
			}
		}
	}
}
