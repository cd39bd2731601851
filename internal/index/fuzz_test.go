package index

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"

	"skysr/internal/gen"
	"skysr/internal/taxonomy"
)

// FuzzReadIndex feeds mutated sidecars of the paper example to Read, with
// the crc32 footer patched after each mutation so that mutations reach
// the header and row decoders. Read must never panic, and a sidecar it
// accepts must write back and read again to bit-identical rows. The
// committed seeds under testdata/fuzz/FuzzReadIndex are sidecars of the
// paper example; the seed built here keeps one valid if the example's
// fingerprint ever changes.
func FuzzReadIndex(f *testing.F) {
	d, _, _ := gen.PaperExample()
	ci := New(d, 0)
	ci.EnsureRoots()
	var seed bytes.Buffer
	if err := ci.Write(&seed, 0); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		img := append([]byte(nil), data...)
		if n := len(img) - 4; n >= len(indexMagic) {
			binary.LittleEndian.PutUint32(img[n:], crc32.ChecksumIEEE(img[len(indexMagic):n]))
		}
		loaded, err := Read(bytes.NewReader(img), d, 0)
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := loaded.Write(&again, 0); err != nil {
			t.Fatalf("Write fails on an accepted sidecar: %v", err)
		}
		reread, err := Read(bytes.NewReader(again.Bytes()), d, 0)
		if err != nil {
			t.Fatalf("Read rejects the rewrite of an accepted sidecar: %v", err)
		}
		for c := taxonomy.CategoryID(0); int(c) < d.Forest.NumCategories(); c++ {
			a, b := loaded.RowIfBuilt(c), reread.RowIfBuilt(c)
			if (a == nil) != (b == nil) {
				t.Fatalf("category %d: residency differs after a rewrite", c)
			}
			for v := range a {
				if math.Float32bits(a[v]) != math.Float32bits(b[v]) {
					t.Fatalf("category %d vertex %d: %v != %v after a rewrite", c, v, a[v], b[v])
				}
			}
		}
	})
}
