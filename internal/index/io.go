package index

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"skysr/internal/dataset"
	"skysr/internal/taxonomy"
)

// The sidecar format is binary, little-endian (see ARCHITECTURE.md for
// the authoritative byte-level specification):
//
//	magic   "SKYSRCI2"   (the trailing digit is the format version)
//	header  directed(u8) numVertices(u32) numCategories(u32)
//	        numPoIs(u32) numEdges(u32) numTrees(u32) checksum(u32)
//	        epoch(u64)
//	rows    rowCount(u32), then per row:
//	        category(u32) followed by numVertices float32 bit patterns
//	footer  crc32-IEEE(u32) of everything after the magic
//
// Distances travel as raw float32 bit patterns, so a build → Write → Read
// round-trip is bit-exact. Read rejects a NaN or negative entry, which no
// distance takes. The header fingerprints the dataset the rows were
// computed over — shape counts plus a crc32 of its canonical text
// serialization — and Read refuses a sidecar whose fingerprint does not
// match the dataset it is being attached to (ErrDatasetMismatch). That is
// what makes a stale sidecar safe, including one orphaned by a live-update
// batch: ApplyUpdates changes the dataset's serialization, so a sidecar
// persisted before the update no longer matches the dataset saved after
// it, and the loader falls back to rebuilding. The epoch field records the
// writer's dataset version (Engine.Epoch at Save) for observability; Read
// skips it, and it does not participate in the match. Sidecars written by
// earlier format versions fail the magic check and are likewise rebuilt.

var indexMagic = [8]byte{'S', 'K', 'Y', 'S', 'R', 'C', 'I', '2'}

// ErrBadFormat wraps parse failures of a sidecar file: a structural fault
// or a row entry no distance takes.
var ErrBadFormat = errors.New("index: bad sidecar format")

// ErrDatasetMismatch reports a sidecar whose fingerprint does not match
// the dataset it is being loaded for.
var ErrDatasetMismatch = errors.New("index: sidecar was built for a different dataset")

type fingerprint struct {
	Directed      uint8
	NumVertices   uint32
	NumCategories uint32
	NumPoIs       uint32
	NumEdges      uint32
	NumTrees      uint32
	// Checksum is a crc32 of the dataset's canonical text serialization.
	// Counts alone are not enough: a dataset with the same shape but
	// different edge weights or PoI categories would otherwise adopt rows
	// that are no longer lower bounds, silently breaking exactness.
	Checksum uint32
}

func fingerprintOf(d *dataset.Dataset) fingerprint {
	fp := fingerprint{
		NumVertices:   uint32(d.Graph.NumVertices()),
		NumCategories: uint32(d.Forest.NumCategories()),
		NumPoIs:       uint32(d.Graph.NumPoIs()),
		NumEdges:      uint32(d.Graph.NumEdges()),
		NumTrees:      uint32(d.Forest.NumTrees()),
		Checksum:      datasetChecksum(d),
	}
	if d.Graph.Directed() {
		fp.Directed = 1
	}
	return fp
}

// datasetChecksum streams the dataset's text serialization through crc32
// without materializing it.
func datasetChecksum(d *dataset.Dataset) uint32 {
	crc := crc32.NewIEEE()
	// Write only fails on writer errors, which a hash never produces.
	_ = dataset.Write(crc, d)
	return crc.Sum32()
}

// Write serializes every built row of ci to w, recording epoch as the
// dataset version in the header.
func (ci *CategoryDistances) Write(w io.Writer, epoch int64) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(indexMagic[:]); err != nil {
		return err
	}
	crc := crc32.NewIEEE()
	out := io.MultiWriter(bw, crc)

	if err := binary.Write(out, binary.LittleEndian, fingerprintOf(ci.d)); err != nil {
		return err
	}
	if err := binary.Write(out, binary.LittleEndian, uint64(epoch)); err != nil {
		return err
	}
	var cats []taxonomy.CategoryID
	for c := range ci.rows {
		if ci.rows[c].Load() != nil {
			cats = append(cats, taxonomy.CategoryID(c))
		}
	}
	if err := binary.Write(out, binary.LittleEndian, uint32(len(cats))); err != nil {
		return err
	}
	buf := make([]byte, 4)
	for _, c := range cats {
		binary.LittleEndian.PutUint32(buf, uint32(c))
		if _, err := out.Write(buf); err != nil {
			return err
		}
		for _, f := range *ci.rows[c].Load() {
			binary.LittleEndian.PutUint32(buf, math.Float32bits(f))
			if _, err := out.Write(buf); err != nil {
				return err
			}
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, crc.Sum32()); err != nil {
		return err
	}
	return bw.Flush()
}

// Read parses a sidecar written by Write and returns an index over d with
// the persisted rows resident. maxBytes configures the budget for further
// lazy builds; loaded rows are always admitted (the budget then applies on
// top of them).
func Read(r io.Reader, d *dataset.Dataset, maxBytes int64) (*CategoryDistances, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: missing magic: %v", ErrBadFormat, err)
	}
	if magic != indexMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadFormat, magic[:])
	}
	crc := crc32.NewIEEE()
	in := io.TeeReader(br, crc)

	var fp fingerprint
	if err := binary.Read(in, binary.LittleEndian, &fp); err != nil {
		return nil, fmt.Errorf("%w: truncated header: %v", ErrBadFormat, err)
	}
	if fp != fingerprintOf(d) {
		return nil, ErrDatasetMismatch
	}
	var epoch uint64 // informational only
	if err := binary.Read(in, binary.LittleEndian, &epoch); err != nil {
		return nil, fmt.Errorf("%w: truncated epoch: %v", ErrBadFormat, err)
	}
	var rowCount uint32
	if err := binary.Read(in, binary.LittleEndian, &rowCount); err != nil {
		return nil, fmt.Errorf("%w: truncated row count: %v", ErrBadFormat, err)
	}
	if int(rowCount) > d.Forest.NumCategories() {
		return nil, fmt.Errorf("%w: %d rows for %d categories", ErrBadFormat, rowCount, d.Forest.NumCategories())
	}

	ci := New(d, maxBytes)
	n := d.Graph.NumVertices()
	buf := make([]byte, 4*n)
	for i := uint32(0); i < rowCount; i++ {
		var cu uint32
		if err := binary.Read(in, binary.LittleEndian, &cu); err != nil {
			return nil, fmt.Errorf("%w: truncated row header: %v", ErrBadFormat, err)
		}
		c := taxonomy.CategoryID(cu)
		if int(c) < 0 || int(c) >= len(ci.rows) {
			return nil, fmt.Errorf("%w: row for unknown category %d", ErrBadFormat, c)
		}
		if ci.rows[c].Load() != nil {
			return nil, fmt.Errorf("%w: duplicate row for category %d", ErrBadFormat, c)
		}
		if _, err := io.ReadFull(in, buf); err != nil {
			return nil, fmt.Errorf("%w: truncated row %d: %v", ErrBadFormat, c, err)
		}
		row := make(Row, n)
		for v := 0; v < n; v++ {
			x := math.Float32frombits(binary.LittleEndian.Uint32(buf[4*v:]))
			// No distance is NaN or negative (+Inf marks an unreachable
			// vertex). A NaN entry would silently disable every cut that
			// reads it, and a negative one would not be a lower bound.
			if !(x >= 0) {
				return nil, fmt.Errorf("%w: row %d holds %v at vertex %d", ErrBadFormat, c, x, v)
			}
			row[v] = x
		}
		ci.buildMu.Lock()
		ci.publishLocked(c, row)
		ci.buildMu.Unlock()
	}
	sum := crc.Sum32()
	var want uint32
	if err := binary.Read(br, binary.LittleEndian, &want); err != nil {
		return nil, fmt.Errorf("%w: missing checksum: %v", ErrBadFormat, err)
	}
	if sum != want {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadFormat)
	}
	// Loaded rows are admitted unconditionally; keep the budget at least
	// large enough that Stats never reports a footprint over budget.
	if b := ci.bytes.Load(); b > ci.maxBytes.Load() {
		ci.maxBytes.Store(b)
	}
	return ci, nil
}

// WriteFile serializes ci's built rows to a sidecar file (see Write).
func (ci *CategoryDistances) WriteFile(path string, epoch int64) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ci.Write(file, epoch); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}

// ReadFile loads a sidecar file for d.
func ReadFile(path string, d *dataset.Dataset, maxBytes int64) (*CategoryDistances, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	return Read(file, d, maxBytes)
}
