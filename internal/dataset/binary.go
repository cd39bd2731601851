package dataset

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sort"
	"unsafe"

	"skysr/internal/geo"
	"skysr/internal/graph"
	"skysr/internal/taxonomy"
)

// Binary dataset format ("SKYSRBD1"): a sectioned, checksummed container
// whose large columns are stored as raw little-endian arrays at 8-byte-
// aligned offsets, so OpenBinary can memory-map the file and hand the
// graph its CSR columns without parsing or copying — opening an OSM-scale
// dataset costs one mmap plus a hardware-accelerated CRC pass instead of a
// full text parse.
//
// Layout (all integers little-endian):
//
//	[0,8)   magic "SKYSRBD1"
//	[8,12)  flags u32: bit0 directed, bit1 time table, bit2 ratings,
//	        bit3 retired (see flagRetiredCH)
//	[12,16) section count u32
//	[16,24) numVertices u64
//	[24,32) numArcs u64 (stored arcs; 2× logical edges when undirected)
//	[32,40) numCategories u64
//	[40,48) numEdges u64 (logical edges)
//	[48,..) section table: count × {id u32, pad u32, offset u64, len u64}
//	...     section payloads, each starting at an 8-byte-aligned offset
//	[EOF-4,EOF) crc32 (Castagnoli) of every preceding byte
//
// Sections either alias the mapping directly (points, offsets, targets,
// weights, cat, ratings, the profile breakpoint arrays and arc-profile
// column) or are small and parsed on open (name, taxonomy, extra
// categories). Zero-copy sections require a little-endian host — every
// supported target — and OpenBinary refuses to reinterpret bytes on a
// big-endian one. Unknown flag bits and section ids are ignored on read;
// flag bit 3 and section 11 are retired (see flagRetiredCH).

// BinaryMagic is the 8-byte signature binary dataset files start with;
// Engine.Open sniffs it to pick the decoder.
const BinaryMagic = "SKYSRBD1"

// ErrBadBinary wraps all binary decode failures (truncation, checksum
// mismatch, malformed sections).
var ErrBadBinary = errors.New("dataset: bad binary format")

const (
	flagDirected = 1 << iota
	flagTimeTable
	flagRatings
	// flagRetiredCH marked an embedded contraction-hierarchy overlay
	// (section 11), a serving profile that has since been removed. Files
	// carrying it still open — the bit and the section are ignored on
	// read — and neither is ever reused for something else.
	flagRetiredCH
)

const (
	secName      = 1  // raw UTF-8 dataset name
	secPoints    = 2  // numV × geo.Point (lon f64, lat f64)
	secOffsets   = 3  // (numV+1) × i32 CSR offsets
	secTargets   = 4  // numArcs × i32 arc targets
	secWeights   = 5  // numArcs × f64 lower-bound weights
	secCat       = 6  // numV × i32 primary categories (-1 road vertex)
	secExtraCats = 7  // count u32, count × {v i32, n u32, n × i32}
	secTaxonomy  = 8  // numCats × {parent i32, nameLen u32, name bytes}
	secRatings   = 9  // numV × f64 PoI ratings
	secTProfiles = 10 // period f64, nProf u32, pad, profiles, arcProf
	// 11 held the overlay of flagRetiredCH: ignored on read, never reused.
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// hostLittleEndian reports whether this machine stores integers little-
// endian, the precondition for reinterpreting mapped bytes as columns.
var hostLittleEndian = func() bool {
	x := uint16(0x0102)
	return *(*byte)(unsafe.Pointer(&x)) == 0x02
}()

// ---------------------------------------------------------------------
// Raw-column byte views (little-endian hosts only).

func i32Bytes(s []int32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4)
}

func f64Bytes(s []float64) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8)
}

func pointBytes(s []geo.Point) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*16)
}

func viewI32(b []byte) []int32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
}

func viewF64(b []byte) []float64 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8)
}

func viewPoints(b []byte) []geo.Point {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*geo.Point)(unsafe.Pointer(&b[0])), len(b)/16)
}

// ---------------------------------------------------------------------
// Writer.

// binSection is one table entry plus its payload, kept as chunks so the
// big columns are written straight from their backing arrays.
type binSection struct {
	id     uint32
	chunks [][]byte
}

func (s *binSection) size() uint64 {
	var n uint64
	for _, c := range s.chunks {
		n += uint64(len(c))
	}
	return n
}

// WriteBinary serializes d to w in the binary format.
func WriteBinary(w io.Writer, d *Dataset) error {
	if !hostLittleEndian {
		return fmt.Errorf("%w: binary datasets require a little-endian host", ErrBadBinary)
	}
	p := d.Graph.Parts()

	var flags uint32
	if p.Directed {
		flags |= flagDirected
	}
	if p.TT != nil {
		flags |= flagTimeTable
	}
	if d.HasRatings() {
		flags |= flagRatings
	}

	secs := []binSection{
		{secName, [][]byte{[]byte(d.Name)}},
		{secPoints, [][]byte{pointBytes(p.Points)}},
		{secOffsets, [][]byte{i32Bytes(p.Offsets)}},
		{secTargets, [][]byte{i32Bytes(p.Targets)}},
		{secWeights, [][]byte{f64Bytes(p.Weights)}},
		{secCat, [][]byte{i32Bytes(p.Cat)}},
		{secTaxonomy, [][]byte{encodeTaxonomy(d.Forest)}},
	}
	if len(p.ExtraCats) > 0 {
		secs = append(secs, binSection{secExtraCats, [][]byte{encodeExtraCats(p.ExtraCats)}})
	}
	if d.HasRatings() {
		secs = append(secs, binSection{secRatings, [][]byte{f64Bytes(d.ratings)}})
	}
	if p.TT != nil {
		secs = append(secs, binSection{secTProfiles, encodeTimeTable(p.TT)})
	}

	headerLen := uint64(48 + 24*len(secs))
	// Lay the sections out back to back, each 8-byte aligned.
	var table bytes.Buffer
	off := align8(headerLen)
	type placed struct {
		pad int
	}
	pads := make([]placed, len(secs))
	for i := range secs {
		aligned := align8(off)
		pads[i].pad = int(aligned - off)
		off = aligned
		var ent [24]byte
		binary.LittleEndian.PutUint32(ent[0:], secs[i].id)
		binary.LittleEndian.PutUint64(ent[8:], off)
		binary.LittleEndian.PutUint64(ent[16:], secs[i].size())
		table.Write(ent[:])
		off += secs[i].size()
	}

	g := d.Graph
	var head [48]byte
	copy(head[:8], BinaryMagic)
	binary.LittleEndian.PutUint32(head[8:], flags)
	binary.LittleEndian.PutUint32(head[12:], uint32(len(secs)))
	binary.LittleEndian.PutUint64(head[16:], uint64(g.NumVertices()))
	binary.LittleEndian.PutUint64(head[24:], uint64(len(p.Targets)))
	binary.LittleEndian.PutUint64(head[32:], uint64(d.Forest.NumCategories()))
	binary.LittleEndian.PutUint64(head[40:], uint64(p.NumEdges))

	crc := crc32.New(castagnoli)
	out := io.MultiWriter(w, crc)
	var zero [8]byte
	write := func(b []byte) error {
		_, err := out.Write(b)
		return err
	}
	if err := write(head[:]); err != nil {
		return err
	}
	if err := write(table.Bytes()); err != nil {
		return err
	}
	if pad := align8(headerLen) - headerLen; pad > 0 {
		if err := write(zero[:pad]); err != nil {
			return err
		}
	}
	for i := range secs {
		if pads[i].pad > 0 {
			if err := write(zero[:pads[i].pad]); err != nil {
				return err
			}
		}
		for _, c := range secs[i].chunks {
			if err := write(c); err != nil {
				return err
			}
		}
	}
	var foot [4]byte
	binary.LittleEndian.PutUint32(foot[:], crc.Sum32())
	_, err := w.Write(foot[:])
	return err
}

// WriteBinaryFile serializes d to a file in the binary format.
func WriteBinaryFile(path string, d *Dataset) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteBinary(file, d); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}

func align8(n uint64) uint64 { return (n + 7) &^ 7 }

func encodeTaxonomy(f *taxonomy.Forest) []byte {
	var buf bytes.Buffer
	var ent [8]byte
	for c := taxonomy.CategoryID(0); int(c) < f.NumCategories(); c++ {
		name := f.Name(c)
		binary.LittleEndian.PutUint32(ent[0:], uint32(f.Parent(c)))
		binary.LittleEndian.PutUint32(ent[4:], uint32(len(name)))
		buf.Write(ent[:])
		buf.WriteString(name)
	}
	return buf.Bytes()
}

func encodeExtraCats(m map[graph.VertexID][]graph.CategoryID) []byte {
	verts := make([]graph.VertexID, 0, len(m))
	for v := range m {
		verts = append(verts, v)
	}
	sort.Slice(verts, func(i, j int) bool { return verts[i] < verts[j] })
	var buf bytes.Buffer
	var word [4]byte
	binary.LittleEndian.PutUint32(word[:], uint32(len(verts)))
	buf.Write(word[:])
	for _, v := range verts {
		cats := m[v]
		binary.LittleEndian.PutUint32(word[:], uint32(v))
		buf.Write(word[:])
		binary.LittleEndian.PutUint32(word[:], uint32(len(cats)))
		buf.Write(word[:])
		buf.Write(i32Bytes(cats))
	}
	return buf.Bytes()
}

// encodeTimeTable lays the table out so every f64 array lands 8-byte
// aligned within the (8-aligned) section: period f64, profile count u32,
// pad u32, then per profile {n u32, pad u32, times n×f64, costs n×f64}
// — each profile record is a multiple of 8 bytes — and finally the
// per-arc profile-id column.
func encodeTimeTable(tt *graph.TimeTable) [][]byte {
	profiles := tt.Profiles()
	var head bytes.Buffer
	var w8 [8]byte
	binary.LittleEndian.PutUint64(w8[:], math.Float64bits(tt.Period()))
	head.Write(w8[:])
	binary.LittleEndian.PutUint32(w8[0:], uint32(len(profiles)))
	binary.LittleEndian.PutUint32(w8[4:], 0)
	head.Write(w8[:])
	chunks := [][]byte{head.Bytes()}
	for _, p := range profiles {
		var ph [8]byte
		binary.LittleEndian.PutUint32(ph[0:], uint32(len(p.Times)))
		chunks = append(chunks, ph[:], f64Bytes(p.Times), f64Bytes(p.Costs))
	}
	return append(chunks, i32Bytes(tt.ArcProfileIDs()))
}

// ---------------------------------------------------------------------
// Reader.

// binReader decodes one mapped (or read) file image.
type binReader struct {
	data []byte
	secs map[uint32][]byte
}

func binFail(msg string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadBinary, fmt.Sprintf(msg, args...))
}

// ReadBinary decodes a binary dataset from an in-memory file image. The
// large columns alias data directly — the caller must keep data alive and
// unmodified for the dataset's lifetime (OpenBinary guarantees this by
// never unmapping).
func ReadBinary(data []byte) (*Dataset, error) {
	if !hostLittleEndian {
		return nil, fmt.Errorf("%w: binary datasets require a little-endian host", ErrBadBinary)
	}
	if len(data) < 52 || string(data[:8]) != BinaryMagic {
		return nil, binFail("missing magic")
	}
	body := data[:len(data)-4]
	wantCRC := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.Checksum(body, castagnoli); got != wantCRC {
		return nil, binFail("checksum mismatch: file %08x, computed %08x", wantCRC, got)
	}

	flags := binary.LittleEndian.Uint32(data[8:])
	numSecs := int(binary.LittleEndian.Uint32(data[12:]))
	numV := int(binary.LittleEndian.Uint64(data[16:]))
	numArcs := int(binary.LittleEndian.Uint64(data[24:]))
	numCats := int(binary.LittleEndian.Uint64(data[32:]))
	numEdges := int(binary.LittleEndian.Uint64(data[40:]))
	headerLen := 48 + 24*numSecs
	if headerLen > len(body) {
		return nil, binFail("corrupt header")
	}
	// Every counted item takes at least one byte of the file, so a count
	// past its length is corrupt. Bounding the untrusted counts here, before
	// any product, keeps every section-size check below exact: numV*16 and
	// the like cannot wrap.
	for _, c := range [...]int{numV, numArcs, numCats, numEdges} {
		if c < 0 || c > len(body) {
			return nil, binFail("corrupt header: count %d in a %d-byte file", c, len(data))
		}
	}

	r := &binReader{data: data, secs: make(map[uint32][]byte, numSecs)}
	for i := 0; i < numSecs; i++ {
		ent := data[48+24*i:]
		id := binary.LittleEndian.Uint32(ent)
		off := binary.LittleEndian.Uint64(ent[8:])
		length := binary.LittleEndian.Uint64(ent[16:])
		if off%8 != 0 || off+length < off || off+length > uint64(len(body)) {
			return nil, binFail("section %d spans [%d,%d) outside file", id, off, off+length)
		}
		r.secs[id] = data[off : off+length]
	}

	name, ok := r.secs[secName]
	if !ok {
		return nil, binFail("missing name section")
	}
	forest, err := r.decodeTaxonomy(numCats)
	if err != nil {
		return nil, err
	}
	points, err := r.column(secPoints, numV*16, "points")
	if err != nil {
		return nil, err
	}
	offsets, err := r.column(secOffsets, (numV+1)*4, "offsets")
	if err != nil {
		return nil, err
	}
	targets, err := r.column(secTargets, numArcs*4, "targets")
	if err != nil {
		return nil, err
	}
	weights, err := r.column(secWeights, numArcs*8, "weights")
	if err != nil {
		return nil, err
	}
	cat, err := r.column(secCat, numV*4, "categories")
	if err != nil {
		return nil, err
	}
	for _, c := range viewI32(cat) {
		if c < -1 || int(c) >= numCats {
			return nil, binFail("category id %d out of range", c)
		}
	}
	extraCats, err := r.decodeExtraCats(numV, numCats)
	if err != nil {
		return nil, err
	}
	var tt *graph.TimeTable
	if flags&flagTimeTable != 0 {
		if tt, err = r.decodeTimeTable(numArcs); err != nil {
			return nil, err
		}
	}

	g, err := graph.FromParts(graph.GraphParts{
		Directed:  flags&flagDirected != 0,
		Points:    viewPoints(points),
		Offsets:   viewI32(offsets),
		Targets:   viewI32(targets),
		Weights:   viewF64(weights),
		Cat:       viewI32(cat),
		ExtraCats: extraCats,
		NumEdges:  numEdges,
		TT:        tt,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadBinary, err)
	}
	d, err := New(string(name), g, forest)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadBinary, err)
	}
	if flags&flagRatings != 0 {
		ratings, err := r.column(secRatings, numV*8, "ratings")
		if err != nil {
			return nil, err
		}
		// Alias the mapped column directly; Rating never writes, and the
		// checksum already vouched for the values.
		d.ratings = viewF64(ratings)
	}
	return d, nil
}

// column fetches a fixed-size raw section.
func (r *binReader) column(id uint32, size int, what string) ([]byte, error) {
	sec, ok := r.secs[id]
	if !ok {
		return nil, binFail("missing %s section", what)
	}
	if len(sec) != size {
		return nil, binFail("%s section is %d bytes, want %d", what, len(sec), size)
	}
	return sec, nil
}

func (r *binReader) decodeTaxonomy(numCats int) (*taxonomy.Forest, error) {
	sec, ok := r.secs[secTaxonomy]
	if !ok {
		return nil, binFail("missing taxonomy section")
	}
	fb := taxonomy.NewForestBuilder()
	for i := 0; i < numCats; i++ {
		if len(sec) < 8 {
			return nil, binFail("truncated taxonomy (%d of %d)", i, numCats)
		}
		parent := int32(binary.LittleEndian.Uint32(sec))
		nameLen := int(binary.LittleEndian.Uint32(sec[4:]))
		sec = sec[8:]
		if nameLen < 0 || nameLen > len(sec) {
			return nil, binFail("taxonomy name overruns section")
		}
		name := string(sec[:nameLen])
		sec = sec[nameLen:]
		var id taxonomy.CategoryID
		var err error
		if parent < 0 {
			id, err = fb.AddRoot(name)
		} else {
			id, err = fb.AddChild(parent, name)
		}
		if err != nil {
			return nil, binFail("category %q: %v", name, err)
		}
		if int(id) != i {
			return nil, binFail("taxonomy ids out of order")
		}
	}
	if len(sec) != 0 {
		return nil, binFail("trailing bytes after taxonomy")
	}
	return fb.Build(), nil
}

func (r *binReader) decodeExtraCats(numV, numCats int) (map[graph.VertexID][]graph.CategoryID, error) {
	sec, ok := r.secs[secExtraCats]
	if !ok {
		return nil, nil
	}
	if len(sec) < 4 {
		return nil, binFail("truncated extra-categories section")
	}
	count := int(binary.LittleEndian.Uint32(sec))
	sec = sec[4:]
	if count > len(sec)/12 { // an entry takes at least 12 bytes
		return nil, binFail("extra-categories count %d overruns section", count)
	}
	m := make(map[graph.VertexID][]graph.CategoryID, count)
	for i := 0; i < count; i++ {
		if len(sec) < 8 {
			return nil, binFail("truncated extra-categories entry %d", i)
		}
		v := int32(binary.LittleEndian.Uint32(sec))
		n := int(binary.LittleEndian.Uint32(sec[4:]))
		sec = sec[8:]
		if v < 0 || int(v) >= numV || n < 1 || n*4 > len(sec) {
			return nil, binFail("bad extra-categories entry for vertex %d", v)
		}
		cats := make([]graph.CategoryID, n)
		for j := range cats {
			c := int32(binary.LittleEndian.Uint32(sec[4*j:]))
			if c < 0 || int(c) >= numCats {
				return nil, binFail("extra category %d out of range", c)
			}
			cats[j] = c
		}
		sec = sec[4*n:]
		m[v] = cats
	}
	if len(sec) != 0 {
		return nil, binFail("trailing bytes after extra categories")
	}
	return m, nil
}

func (r *binReader) decodeTimeTable(numArcs int) (*graph.TimeTable, error) {
	sec, ok := r.secs[secTProfiles]
	if !ok {
		return nil, binFail("missing time-profiles section")
	}
	if len(sec) < 16 {
		return nil, binFail("truncated time-profiles header")
	}
	period := math.Float64frombits(binary.LittleEndian.Uint64(sec))
	nProf := int(binary.LittleEndian.Uint32(sec[8:]))
	sec = sec[16:]
	if nProf > len(sec)/24 { // a profile takes at least 24 bytes
		return nil, binFail("profile count %d overruns section", nProf)
	}
	profiles := make([]graph.Profile, nProf)
	for i := 0; i < nProf; i++ {
		if len(sec) < 8 {
			return nil, binFail("truncated profile %d", i)
		}
		n := int(binary.LittleEndian.Uint32(sec))
		sec = sec[8:]
		if n < 1 || n*16 > len(sec) {
			return nil, binFail("profile %d breakpoint count %d overruns section", i, n)
		}
		profiles[i] = graph.Profile{Times: viewF64(sec[:n*8]), Costs: viewF64(sec[n*8 : n*16])}
		sec = sec[n*16:]
	}
	if len(sec) != numArcs*4 {
		return nil, binFail("arc-profile column is %d bytes, want %d", len(sec), numArcs*4)
	}
	tt, err := graph.NewTimeTable(period, viewI32(sec), profiles)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadBinary, err)
	}
	return tt, nil
}

// SniffBinaryFile reports whether path starts with the binary magic.
func SniffBinaryFile(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	var magic [8]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		return false, nil // too short to be binary; let the text parser report
	}
	return string(magic[:]) == BinaryMagic, nil
}

// OpenBinary memory-maps path and decodes it, returning the dataset and
// the mapped file image its large columns alias. The mapping is read-only
// and intentionally never unmapped: datasets live for the process, and
// live updates copy-on-write every column they touch, so the mapped
// pages stay valid behind every snapshot. Callers must not write to the
// image.
func OpenBinary(path string) (*Dataset, []byte, error) {
	data, err := mmapFile(path)
	if err != nil {
		return nil, nil, err
	}
	d, err := ReadBinary(data)
	if err != nil {
		return nil, nil, err
	}
	return d, data, nil
}
