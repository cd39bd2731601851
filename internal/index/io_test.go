package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"skysr/internal/dataset"
	"skysr/internal/geo"
	"skysr/internal/graph"
	"skysr/internal/taxonomy"
)

// TestSidecarRoundTripBitExact: build → Write → Read must reproduce every
// row bit for bit, and re-serializing the loaded index must produce the
// identical byte stream.
func TestSidecarRoundTripBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	f := taxonomy.Generated(3, 2, 2)
	for _, directed := range []bool{false, true} {
		d := randomDataset(rng, f, 28, 16, directed)
		ci := New(d, 0)
		// Warm a mix of roots, inner nodes and leaves.
		ci.EnsureRoots()
		ci.Prewarm(f.Leaves()[0], f.Leaves()[2])

		var buf bytes.Buffer
		if err := ci.Write(&buf, 0); err != nil {
			t.Fatal(err)
		}
		first := append([]byte(nil), buf.Bytes()...)

		loaded, err := Read(bytes.NewReader(first), d, 0)
		if err != nil {
			t.Fatal(err)
		}
		if loaded.NumBuiltRows() != ci.NumBuiltRows() {
			t.Fatalf("loaded %d rows, want %d", loaded.NumBuiltRows(), ci.NumBuiltRows())
		}
		for c := taxonomy.CategoryID(0); int(c) < f.NumCategories(); c++ {
			orig, got := ci.RowIfBuilt(c), loaded.RowIfBuilt(c)
			if (orig == nil) != (got == nil) {
				t.Fatalf("cat %d: residency differs after round-trip", c)
			}
			for v := range orig {
				if orig[v] != got[v] && !(orig[v] != orig[v] && got[v] != got[v]) {
					t.Fatalf("cat %d vertex %d: %v != %v after round-trip", c, v, orig[v], got[v])
				}
			}
		}
		var buf2 bytes.Buffer
		if err := loaded.Write(&buf2, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, buf2.Bytes()) {
			t.Fatal("re-serialized sidecar differs from the original bytes")
		}
	}
}

func TestSidecarFileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	f := taxonomy.Generated(2, 2, 2)
	d := randomDataset(rng, f, 20, 10, false)
	ci := rootIndex(d)
	path := filepath.Join(t.TempDir(), "ds.cidx")
	if err := ci.WriteFile(path, 0); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadFile(path, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumBuiltRows() != ci.NumBuiltRows() {
		t.Fatalf("loaded %d rows, want %d", loaded.NumBuiltRows(), ci.NumBuiltRows())
	}
}

// TestSidecarRejectsMismatchedDataset: a sidecar written for one dataset
// must not load for a structurally different one.
func TestSidecarRejectsMismatchedDataset(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	f := taxonomy.Generated(2, 2, 2)
	d1 := randomDataset(rng, f, 20, 10, false)
	d2 := randomDataset(rng, f, 21, 10, false)
	var buf bytes.Buffer
	if err := rootIndex(d1).Write(&buf, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader(buf.Bytes()), d2, 0); !errors.Is(err, ErrDatasetMismatch) {
		t.Fatalf("err = %v, want ErrDatasetMismatch", err)
	}
}

// TestSidecarRejectsSameShapeDifferentContent: a dataset with identical
// counts but different edge weights must be rejected — its distances
// differ, so adopting the rows would break the lower-bound guarantee.
func TestSidecarRejectsSameShapeDifferentContent(t *testing.T) {
	build := func(w float64) *dataset.Dataset {
		fb := taxonomy.NewForestBuilder()
		a := fb.MustAddRoot("A")
		f := fb.Build()
		b := graph.NewBuilder(false)
		v := b.AddVertex(geo.Point{})
		p := b.AddPoI(geo.Point{Lon: 1}, a)
		b.AddEdge(v, p, w)
		return dataset.MustNew("same-shape", b.Build(), f)
	}
	d1, d2 := build(2), build(3)
	var buf bytes.Buffer
	if err := rootIndex(d1).Write(&buf, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader(buf.Bytes()), d2, 0); !errors.Is(err, ErrDatasetMismatch) {
		t.Fatalf("err = %v, want ErrDatasetMismatch for same-shape different-content dataset", err)
	}
	if _, err := Read(bytes.NewReader(buf.Bytes()), d1, 0); err != nil {
		t.Fatalf("identical dataset rejected: %v", err)
	}
}

// TestSidecarRejectsHighBitCategory: a corrupt row header whose category
// id has the high bit set must fail cleanly, not panic on a negative
// slice index.
func TestSidecarRejectsHighBitCategory(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	f := taxonomy.Generated(2, 2, 2)
	d := randomDataset(rng, f, 18, 9, false)
	var buf bytes.Buffer
	if err := rootIndex(d).Write(&buf, 0); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), buf.Bytes()...)
	// Layout: magic(8) + fingerprint(1 + 6*4 = 25) + epoch(8) + rowCount(4),
	// then the first row's category id.
	catOff := 8 + 25 + 8 + 4
	raw[catOff], raw[catOff+1], raw[catOff+2], raw[catOff+3] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, err := Read(bytes.NewReader(raw), d, 0); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("err = %v, want ErrBadFormat for high-bit category id", err)
	}
}

// TestSidecarRejectsCorruption: flipping any payload byte must trip the
// checksum (or a structural check), never load silently.
func TestSidecarRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	f := taxonomy.Generated(2, 2, 2)
	d := randomDataset(rng, f, 18, 9, false)
	var buf bytes.Buffer
	if err := rootIndex(d).Write(&buf, 0); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, pos := range []int{len(raw) / 2, len(raw) - 5, 40} {
		bad := append([]byte(nil), raw...)
		bad[pos] ^= 0x40
		if _, err := Read(bytes.NewReader(bad), d, 0); err == nil {
			t.Fatalf("corruption at byte %d loaded silently", pos)
		}
	}
	// Truncation must fail too.
	if _, err := Read(bytes.NewReader(raw[:len(raw)-7]), d, 0); err == nil {
		t.Fatal("truncated sidecar loaded silently")
	}
}

// TestSidecarRejectsInvalidEntries: a row entry no distance takes — NaN
// or negative — must fail the load even under a valid checksum. A NaN
// entry would otherwise load and silently disable every cut that reads
// it. +Inf, an unreachable vertex, stays legal.
func TestSidecarRejectsInvalidEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	f := taxonomy.Generated(2, 2, 2)
	d := randomDataset(rng, f, 18, 9, false)
	var buf bytes.Buffer
	if err := rootIndex(d).Write(&buf, 0); err != nil {
		t.Fatal(err)
	}
	// Layout: magic(8) + fingerprint(25) + epoch(8) + rowCount(4) + the
	// first row's category id(4), then its entries.
	const entryOff = 8 + 25 + 8 + 4 + 4
	for _, tc := range []struct {
		val float32
		ok  bool
	}{
		{float32(math.NaN()), false},
		{-1, false},
		{float32(math.Inf(-1)), false},
		{float32(math.Inf(1)), true},
	} {
		img := append([]byte(nil), buf.Bytes()...)
		binary.LittleEndian.PutUint32(img[entryOff+4*3:], math.Float32bits(tc.val))
		n := len(img) - 4
		binary.LittleEndian.PutUint32(img[n:], crc32.ChecksumIEEE(img[8:n]))
		_, err := Read(bytes.NewReader(img), d, 0)
		switch {
		case tc.ok && err != nil:
			t.Errorf("entry %v rejected: %v", tc.val, err)
		case !tc.ok && !errors.Is(err, ErrBadFormat):
			t.Errorf("entry %v: err = %v, want ErrBadFormat", tc.val, err)
		}
	}
}
