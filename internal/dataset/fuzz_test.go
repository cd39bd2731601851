package dataset

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// TestReadNeverPanicsOnMutatedInput corrupts a valid dataset file in
// random ways and requires Read to fail gracefully (or succeed, for
// harmless mutations) — never panic. This is the failure-injection test
// for the parser.
func TestReadNeverPanicsOnMutatedInput(t *testing.T) {
	d, _, _ := fixture(t)
	var buf strings.Builder
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	good := buf.String()
	rng := rand.New(rand.NewSource(99))

	mutate := func(s string) string {
		b := []byte(s)
		switch rng.Intn(5) {
		case 0: // flip a byte
			if len(b) > 0 {
				b[rng.Intn(len(b))] = byte(rng.Intn(256))
			}
		case 1: // delete a random line
			lines := strings.Split(s, "\n")
			if len(lines) > 1 {
				i := rng.Intn(len(lines))
				lines = append(lines[:i], lines[i+1:]...)
			}
			return strings.Join(lines, "\n")
		case 2: // duplicate a random line
			lines := strings.Split(s, "\n")
			i := rng.Intn(len(lines))
			lines = append(lines[:i+1], append([]string{lines[i]}, lines[i+1:]...)...)
			return strings.Join(lines, "\n")
		case 3: // truncate
			if len(b) > 0 {
				return s[:rng.Intn(len(s))]
			}
		case 4: // swap two lines
			lines := strings.Split(s, "\n")
			if len(lines) > 2 {
				i, j := rng.Intn(len(lines)), rng.Intn(len(lines))
				lines[i], lines[j] = lines[j], lines[i]
			}
			return strings.Join(lines, "\n")
		}
		return string(b)
	}

	for trial := 0; trial < 500; trial++ {
		input := good
		for m := 0; m <= rng.Intn(3); m++ {
			input = mutate(input)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Read panicked on mutated input: %v\ninput:\n%s", r, input)
				}
			}()
			ds, err := Read(strings.NewReader(input))
			// Either outcome is fine; a successful parse must at least be
			// self-consistent.
			if err == nil && ds.Graph.NumVertices() < 0 {
				t.Fatal("inconsistent parse")
			}
		}()
	}
}

// TestRatingsRoundTrip verifies ratings survive serialization.
func TestRatingsRoundTrip(t *testing.T) {
	d, _, verts := fixture(t)
	ratings := make([]float64, d.Graph.NumVertices())
	for i := range ratings {
		ratings[i] = MaxRating
	}
	ratings[verts["pAsian"]] = 2.5
	ratings[verts["pGift"]] = 4
	if err := d.SetRatings(ratings); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := Read(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasRatings() {
		t.Fatal("ratings lost in round trip")
	}
	if got.Rating(verts["pAsian"]) != 2.5 || got.Rating(verts["pGift"]) != 4 {
		t.Errorf("rating values changed: %v, %v",
			got.Rating(verts["pAsian"]), got.Rating(verts["pGift"]))
	}
	// Unrated dataset writes no rating column and loads back unrated.
	d2, _, _ := fixture(t)
	var buf2 strings.Builder
	if err := Write(&buf2, d2); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf2.String(), "p 1 0 1 ") {
		t.Error("unrated dataset should not write a rating column")
	}
	got2, err := Read(strings.NewReader(buf2.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got2.HasRatings() {
		t.Error("unrated dataset loaded back as rated")
	}
}

// TestReadRejectsBadRating covers the rating column's validation.
func TestReadRejectsBadRating(t *testing.T) {
	d, _, _ := fixture(t)
	var buf strings.Builder
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	bad := strings.Replace(buf.String(), "p 1 0 1", "p 1 0 1 7.5", 1)
	if _, err := Read(strings.NewReader(bad)); err == nil {
		t.Error("rating > 5 should fail to parse")
	}
	bad2 := strings.Replace(buf.String(), "p 1 0 1", "p 1 0 1 xx", 1)
	if _, err := Read(strings.NewReader(bad2)); err == nil {
		t.Error("non-numeric rating should fail to parse")
	}
	nan := strings.Replace(buf.String(), "p 1 0 1", "p 1 0 1 NaN", 1)
	if _, err := Read(strings.NewReader(nan)); err == nil {
		t.Error("NaN rating should fail to parse")
	}
}

// FuzzRead feeds mutated text datasets to Read. Read must never panic, and
// an input it accepts must render to a text that reads back and renders
// byte-identically, and whose WriteBinary image ReadBinary decodes to the
// same text. The seeds are the golden fixture and a rated dataset with
// extra categories; testdata/fuzz/FuzzRead holds a time-profiled one with
// comment and blank lines. Run it with
//
//	go test -run '^$' -fuzz '^FuzzRead$' -fuzztime 30s ./internal/dataset
func FuzzRead(f *testing.F) {
	golden, err := os.ReadFile("testdata/paper-example.skysr")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	rated, _, verts := fixture(f)
	ratings := make([]float64, rated.Graph.NumVertices())
	for i := range ratings {
		ratings[i] = MaxRating
	}
	ratings[verts["pMulti"]] = 0.5
	if err := rated.SetRatings(ratings); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, rated); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		text := textOf(t, d)
		d2, err := Read(bytes.NewReader(text))
		if err != nil {
			t.Fatalf("Read rejects the text of an accepted input: %v\n%s", err, text)
		}
		if text2 := textOf(t, d2); !bytes.Equal(text, text2) {
			t.Fatalf("text differs after a text round trip:\n%s\nvs\n%s", text, text2)
		}
		var img bytes.Buffer
		if err := WriteBinary(&img, d); err != nil {
			t.Fatalf("WriteBinary fails on an accepted input: %v", err)
		}
		d3, err := ReadBinary(img.Bytes())
		if err != nil {
			t.Fatalf("ReadBinary rejects the image of an accepted input: %v\n%s", err, text)
		}
		if text3 := textOf(t, d3); !bytes.Equal(text, text3) {
			t.Fatalf("text differs after a binary round trip:\n%s\nvs\n%s", text, text3)
		}
	})
}

// FuzzReadBinary feeds mutated binary images to ReadBinary. The target
// rewrites the trailing checksum before decoding, so mutations get past
// it into the section decoders. ReadBinary must never panic, and an image
// it accepts must load to the same dataset as its text: it survives
// WriteBinary and ReadBinary again, and the text it renders loads with
// Read, both rendering the same text. The seeds are the committed file
// with the retired overlay section, and the golden fixture, a
// time-profiled dataset, one with ratings and extra categories, and the
// golden fixture renamed to a name holding a newline (which the text
// format cannot reproduce), each written with WriteBinary. Run it with
//
//	go test -run '^$' -fuzz '^FuzzReadBinary$' -fuzztime 30s ./internal/dataset
func FuzzReadBinary(f *testing.F) {
	overlay, err := os.ReadFile("testdata/paper-example-ch.skysrb")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(overlay)
	golden, err := ReadFile("testdata/paper-example.skysr")
	if err != nil {
		f.Fatal(err)
	}
	rated, _, verts := fixture(f)
	ratings := make([]float64, rated.Graph.NumVertices())
	for i := range ratings {
		ratings[i] = MaxRating
	}
	ratings[verts["pMulti"]] = 0.5
	if err := rated.SetRatings(ratings); err != nil {
		f.Fatal(err)
	}
	newline := *golden
	newline.Name = "a\nb"
	for _, d := range []*Dataset{golden, tdFixture(f), rated, &newline} {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, d); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		img := append([]byte(nil), data...)
		if n := len(img) - 4; n >= 0 {
			binary.LittleEndian.PutUint32(img[n:], crc32.Checksum(img[:n], castagnoli))
		}
		d, err := ReadBinary(img)
		if err != nil {
			return
		}
		text := textOf(t, d)
		var again bytes.Buffer
		if err := WriteBinary(&again, d); err != nil {
			t.Fatalf("WriteBinary fails on an accepted image: %v", err)
		}
		d2, err := ReadBinary(again.Bytes())
		if err != nil {
			t.Fatalf("ReadBinary rejects the re-encoding of an accepted image: %v", err)
		}
		if text2 := textOf(t, d2); !bytes.Equal(text, text2) {
			t.Fatalf("text differs after a binary round trip:\n%s\nvs\n%s", text, text2)
		}
		d3, err := Read(bytes.NewReader(text))
		if err != nil {
			t.Fatalf("Read rejects the text of an accepted image: %v\n%s", err, text)
		}
		if text3 := textOf(t, d3); !bytes.Equal(text, text3) {
			t.Fatalf("text differs after a text round trip:\n%s\nvs\n%s", text, text3)
		}
	})
}
