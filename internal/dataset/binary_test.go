package dataset

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"skysr/internal/graph"
	"skysr/internal/taxonomy"
)

// textOf renders d in the canonical text format — the bit-exactness
// yardstick for binary round trips: equal text bytes means every value
// the text format round-trips exactly (names, taxonomy, coordinates,
// categories, ratings, weights, profiles) survived the binary trip too.
func textOf(t *testing.T, d *Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// binaryTrip writes d and reads it back.
func binaryTrip(t *testing.T, d *Dataset) *Dataset {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// checkBitExact compares the column-level state of two datasets
// bit-for-bit (float columns via their bit patterns, so -0 vs 0 or NaN
// payload drift would fail).
func checkBitExact(t *testing.T, want, got *Dataset) {
	t.Helper()
	if want.Name != got.Name {
		t.Errorf("name %q != %q", got.Name, want.Name)
	}
	wp, gp := want.Graph.Parts(), got.Graph.Parts()
	if wp.Directed != gp.Directed || wp.NumEdges != gp.NumEdges {
		t.Errorf("shape mismatch: directed %v/%v edges %d/%d", gp.Directed, wp.Directed, gp.NumEdges, wp.NumEdges)
	}
	if !reflect.DeepEqual(wp.Offsets, gp.Offsets) || !reflect.DeepEqual(wp.Targets, gp.Targets) || !reflect.DeepEqual(wp.Cat, gp.Cat) {
		t.Error("CSR int columns differ")
	}
	if len(wp.Weights) != len(gp.Weights) {
		t.Fatalf("weights length %d != %d", len(gp.Weights), len(wp.Weights))
	}
	for i := range wp.Weights {
		if math.Float64bits(wp.Weights[i]) != math.Float64bits(gp.Weights[i]) {
			t.Fatalf("weight %d: %v != %v", i, gp.Weights[i], wp.Weights[i])
		}
	}
	for i := range wp.Points {
		if wp.Points[i] != gp.Points[i] {
			t.Fatalf("point %d: %v != %v", i, gp.Points[i], wp.Points[i])
		}
	}
	if want.HasRatings() != got.HasRatings() {
		t.Fatalf("ratings presence %v != %v", got.HasRatings(), want.HasRatings())
	}
	if wt, gt := textOf(t, want), textOf(t, got); !bytes.Equal(wt, gt) {
		t.Errorf("text serialization differs:\n--- want ---\n%s\n--- got ---\n%s", wt, gt)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	d, _, _ := fixture(t)
	checkBitExact(t, d, binaryTrip(t, d))
}

func TestBinaryRoundTripRatings(t *testing.T) {
	d, _, verts := fixture(t)
	ratings := make([]float64, d.Graph.NumVertices())
	for i := range ratings {
		ratings[i] = MaxRating
	}
	ratings[verts["pAsian"]] = 3.25
	ratings[verts["pMulti"]] = 0.5
	if err := d.SetRatings(ratings); err != nil {
		t.Fatal(err)
	}
	got := binaryTrip(t, d)
	checkBitExact(t, d, got)
	if r := got.Rating(verts["pAsian"]); r != 3.25 {
		t.Fatalf("rating lost: %v", r)
	}
}

func TestBinaryRoundTripDirected(t *testing.T) {
	d, _, _ := fixture(t)
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	text := bytes.Replace(buf.Bytes(), []byte("directed false"), []byte("directed true"), 1)
	dd, err := Read(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	checkBitExact(t, dd, binaryTrip(t, dd))
}

func TestBinaryRoundTripTimeProfiles(t *testing.T) {
	d := tdFixture(t)
	got := binaryTrip(t, d)
	checkBitExact(t, d, got)
	g := got.Graph
	if !g.TimeVarying() || g.TimePeriod() != 100 {
		t.Fatalf("time table lost: varying=%v period=%v", g.TimeVarying(), g.TimePeriod())
	}
	// The profile must evaluate identically, not just parse.
	for _, tm := range []float64{0, 10, 20, 45, 99} {
		want, wok := d.Graph.ArcProfile(d.Graph.ArcBase(0))
		gp, gok := g.ArcProfile(g.ArcBase(0))
		if wok != gok {
			t.Fatalf("profile presence diverged")
		}
		if wok {
			if we, ge := want.Eval(tm, 100), gp.Eval(tm, 100); math.Float64bits(we) != math.Float64bits(ge) {
				t.Fatalf("profile eval at %v: %v != %v", tm, ge, we)
			}
		}
	}
}

// TestBinaryReadsRetiredCHFile pins backward compatibility: files written
// while the format could embed a contraction-hierarchy overlay carry flag
// bit 3 and section 11. Both are retired, so such a file must still open,
// with the overlay ignored and the dataset intact.
func TestBinaryReadsRetiredCHFile(t *testing.T) {
	const path = "testdata/paper-example-ch.skysrb"
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 12 || raw[8]&flagRetiredCH == 0 {
		t.Fatal("fixture does not carry the retired overlay flag")
	}
	want, err := os.ReadFile("testdata/paper-example.skysr")
	if err != nil {
		t.Fatal(err)
	}
	read, err := ReadBinary(raw)
	if err != nil {
		t.Fatal(err)
	}
	mapped, img, err := OpenBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, raw) {
		t.Fatal("OpenBinary image differs from the file bytes")
	}
	for name, d := range map[string]*Dataset{"ReadBinary": read, "OpenBinary": mapped} {
		if got := textOf(t, d); !bytes.Equal(got, want) {
			t.Errorf("%s: text rendering differs from the golden fixture:\n%s", name, got)
		}
	}
}

func TestBinaryFileAndSniff(t *testing.T) {
	d, _, _ := fixture(t)
	dir := t.TempDir()
	bin := filepath.Join(dir, "d.skysrb")
	txt := filepath.Join(dir, "d.skysr")
	if err := WriteBinaryFile(bin, d); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(txt, d); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]bool{bin: true, txt: false} {
		got, err := SniffBinaryFile(path)
		if err != nil || got != want {
			t.Fatalf("SniffBinaryFile(%s) = %v, %v; want %v", path, got, err, want)
		}
	}
	got, _, err := OpenBinary(bin)
	if err != nil {
		t.Fatal(err)
	}
	checkBitExact(t, d, got)
}

func TestBinaryRejectsCorruption(t *testing.T) {
	d, _, _ := fixture(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, d); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := ReadBinary(flipped); err == nil {
		t.Fatal("corrupted image accepted")
	}
	if _, err := ReadBinary(good[:len(good)-10]); err == nil {
		t.Fatal("truncated image accepted")
	}
	if _, err := ReadBinary([]byte("SKYSRBD1")); err == nil {
		t.Fatal("bare magic accepted")
	}
	if _, err := ReadBinary(nil); err == nil {
		t.Fatal("empty image accepted")
	}
}

func TestBinaryOpenMissingFile(t *testing.T) {
	if _, _, err := OpenBinary(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("missing file accepted")
	}
	empty := filepath.Join(t.TempDir(), "empty")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenBinary(empty); err == nil {
		t.Fatal("empty file accepted")
	}
}

// binaryImage lays out a binary image by hand: the header with the given
// counts (vertices, arcs, categories, logical edges), one table entry per
// section, 8-byte-aligned payloads and the trailing checksum.
func binaryImage(counts [4]uint64, secs ...binSection) []byte {
	img := make([]byte, 48+24*len(secs))
	copy(img, BinaryMagic)
	binary.LittleEndian.PutUint32(img[12:], uint32(len(secs)))
	for i, c := range counts {
		binary.LittleEndian.PutUint64(img[16+8*i:], c)
	}
	for i, sec := range secs {
		img = append(img, make([]byte, align8(uint64(len(img)))-uint64(len(img)))...)
		ent := img[48+24*i:]
		binary.LittleEndian.PutUint32(ent, sec.id)
		binary.LittleEndian.PutUint64(ent[8:], uint64(len(img)))
		binary.LittleEndian.PutUint64(ent[16:], sec.size())
		img = append(img, bytes.Join(sec.chunks, nil)...)
	}
	return binary.LittleEndian.AppendUint32(img, crc32.Checksum(img, castagnoli))
}

// overflowImage claims 2^62 vertices in a 292-byte file. Its points and
// categories sections are empty and its offsets section is one zero word,
// the sizes numV*16, (numV+1)*4 and numV*4 take once they wrap in 64-bit
// arithmetic, and it carries one extra-category entry for vertex 5.
func overflowImage() []byte {
	fb := taxonomy.NewForestBuilder()
	fb.MustAddRoot("A")
	return binaryImage([4]uint64{1 << 62, 0, 1, 0},
		binSection{secName, [][]byte{[]byte("overflow")}},
		binSection{secPoints, nil},
		binSection{secOffsets, [][]byte{make([]byte, 4)}},
		binSection{secTargets, nil},
		binSection{secWeights, nil},
		binSection{secCat, nil},
		binSection{secTaxonomy, [][]byte{encodeTaxonomy(fb.Build())}},
		binSection{secExtraCats, [][]byte{encodeExtraCats(map[graph.VertexID][]graph.CategoryID{5: {0}})}},
	)
}

// patchSection overwrites the bytes at byte at of section id in a written
// image with v and recomputes the checksum.
func patchSection(t *testing.T, img []byte, id uint32, at int, v []byte) []byte {
	t.Helper()
	img = append([]byte(nil), img...)
	for i := 0; i < int(binary.LittleEndian.Uint32(img[12:])); i++ {
		ent := img[48+24*i:]
		if binary.LittleEndian.Uint32(ent) == id {
			copy(img[int(binary.LittleEndian.Uint64(ent[8:]))+at:], v)
			n := len(img) - 4
			binary.LittleEndian.PutUint32(img[n:], crc32.Checksum(img[:n], castagnoli))
			return img
		}
	}
	t.Fatalf("image has no section %d", id)
	return nil
}

// TestBinaryRejectsOverflowingCounts pins the bounds on untrusted counts.
// Header counts are checked against the file length before any section
// size is computed from them, so a count whose products wrap is rejected
// instead of decoding to a 0-vertex graph that carries a category for
// vertex 5. The extra-category and profile counts are checked against
// their section before anything is allocated for them.
func TestBinaryRejectsOverflowingCounts(t *testing.T) {
	overflow := overflowImage()
	if len(overflow) != 292 {
		t.Fatalf("overflow image is %d bytes, want 292", len(overflow))
	}
	written := func(d *Dataset) []byte {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, d); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	multi, _, _ := fixture(t)
	maxU32 := binary.LittleEndian.AppendUint32(nil, math.MaxUint32)
	for name, img := range map[string][]byte{
		"2^62 vertices":           overflow,
		"2^32-1 extra-categories": patchSection(t, written(multi), secExtraCats, 0, maxU32),
		"2^32-1 profiles":         patchSection(t, written(tdFixture(t)), secTProfiles, 8, maxU32),
	} {
		d, err := ReadBinary(img)
		if err == nil {
			t.Errorf("%s: ReadBinary accepted the image, decoding %d vertices", name, d.Graph.NumVertices())
		} else if !errors.Is(err, ErrBadBinary) {
			t.Errorf("%s: err = %v, want ErrBadBinary", name, err)
		}
	}
}

// TestBinaryRejectsWhatTextRejects pins the checks the decoder shares
// with the Builder and the text parser. Each image is a written fixture
// with one column patched and its checksum rewritten. The fixture is the
// path 0–1–2–3–4 with unit weights, so arc 0 is 0→1.
func TestBinaryRejectsWhatTextRejects(t *testing.T) {
	written := func(d *Dataset) []byte {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, d); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	undirected, _, verts := fixture(t)
	// The directed fixture has no reverse arcs to pair, so only the check
	// under test can reject its patched images.
	text := bytes.Replace(textOf(t, undirected), []byte("directed false"), []byte("directed true"), 1)
	directed, err := Read(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	rated, _, _ := fixture(t)
	ratings := make([]float64, rated.Graph.NumVertices())
	if err := rated.SetRatings(ratings); err != nil {
		t.Fatal(err)
	}
	f64 := func(v float64) []byte { return binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)) }
	u32 := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	for _, tc := range []struct {
		name string
		base *Dataset
		sec  uint32
		at   int
		v    []byte
	}{
		// Reverse searches run on an undirected graph itself, so a lone
		// arc 0→3 would make them disagree with forward ones.
		{"unpaired arc", undirected, secTargets, 0, u32(3)},
		{"negative weight", directed, secWeights, 0, f64(-5)},
		{"NaN weight", directed, secWeights, 0, f64(math.NaN())},
		{"self-loop", directed, secTargets, 0, u32(0)},
		{"rating 99", rated, secRatings, 8 * int(verts["pAsian"]), f64(99)},
		{"NaN rating", rated, secRatings, 8 * int(verts["pAsian"]), f64(math.NaN())},
		{"NaN longitude", undirected, secPoints, 0, f64(math.NaN())},
		{"infinite latitude", undirected, secPoints, 8, f64(math.Inf(1))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			img := written(tc.base)
			if _, err := ReadBinary(img); err != nil {
				t.Fatalf("unpatched image rejected: %v", err)
			}
			d, err := ReadBinary(patchSection(t, img, tc.sec, tc.at, tc.v))
			if err == nil {
				t.Fatalf("ReadBinary accepted the image:\n%s", textOf(t, d))
			}
			if !errors.Is(err, ErrBadBinary) {
				t.Fatalf("err = %v, want ErrBadBinary", err)
			}
		})
	}

	// Names the text format cannot reproduce: each image is the fixture
	// written under one bad dataset or category name, which the literal
	// below lets past New.
	renamed := func(name, asian string) *Dataset {
		f, fb := undirected.Forest, taxonomy.NewForestBuilder()
		for c := taxonomy.CategoryID(0); int(c) < f.NumCategories(); c++ {
			n := f.Name(c)
			if n == "Asian" {
				n = asian
			}
			if p := f.Parent(c); p < 0 {
				fb.MustAddRoot(n)
			} else {
				fb.MustAddChild(p, n)
			}
		}
		return &Dataset{Name: name, Graph: undirected.Graph, Forest: fb.Build()}
	}
	for _, tc := range []struct {
		test string
		d    *Dataset
	}{
		{"empty name", renamed("", "Asian")},
		{"name with a newline", renamed("a\nb", "Asian")},
		{"name ending in a space", renamed("fixture ", "Asian")},
		{"empty category", renamed("fixture", "")},
		{"category with a newline", renamed("fixture", "Su\nshi")},
		{"category ending in a space", renamed("fixture", "Sushi ")},
	} {
		t.Run(tc.test, func(t *testing.T) {
			text := textOf(t, tc.d)
			if back, err := Read(bytes.NewReader(text)); err == nil && bytes.Equal(textOf(t, back), text) {
				t.Fatalf("the text format reproduces the dataset:\n%s", text)
			}
			d, err := ReadBinary(written(tc.d))
			if err == nil {
				t.Fatalf("ReadBinary accepted the image:\n%s", textOf(t, d))
			}
			if !errors.Is(err, ErrBadBinary) {
				t.Fatalf("err = %v, want ErrBadBinary", err)
			}
		})
	}
}
