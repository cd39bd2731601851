package dataset

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"skysr/internal/geo"
	"skysr/internal/graph"
	"skysr/internal/taxonomy"
)

// The text format is line-oriented:
//
//	skysr-dataset v1
//	name <dataset name>
//	directed <true|false>
//	categories <n>
//	c <parent-id|-1> <category name>     (id = appearance order)
//	vertices <n>
//	v <lon> <lat>                        (road vertex, id = appearance order)
//	p <lon> <lat> <cat>[,<cat>...] [<rating>]   (PoI vertex)
//	edges <m>
//	e <u> <v> <weight>
//	tprofiles <k> <period>               (optional section)
//	t <u> <v> <time>:<cost>[,<time>:<cost>...]
//	end
//
// Category and vertex ids are dense and implicit in line order, which keeps
// files compact and makes hand-crafted fixtures easy to write. A name runs
// to the end of its line, so New rejects names this format cannot
// reproduce: empty ones, ones holding a line break and ones ending in
// whitespace.
//
// The optional tprofiles section attaches piecewise-linear FIFO
// travel-time profiles (period-periodic; see graph.Profile) to k of the
// edges. A profiled edge's e-line weight is its lower-bound cost — the
// profile minimum — which Read re-derives, so round trips are exact.
// Profiles are validated on load (sorted breakpoints in [0, period),
// finite non-negative costs, FIFO slopes); failures wrap both
// ErrBadFormat and graph.ErrBadProfile.

const formatHeader = "skysr-dataset v1"

// ErrBadFormat wraps all parse failures.
var ErrBadFormat = errors.New("dataset: bad format")

// Write serializes d to w in the text format.
func Write(w io.Writer, d *Dataset) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, formatHeader)
	fmt.Fprintf(bw, "name %s\n", d.Name)
	fmt.Fprintf(bw, "directed %v\n", d.Graph.Directed())

	f := d.Forest
	fmt.Fprintf(bw, "categories %d\n", f.NumCategories())
	for c := taxonomy.CategoryID(0); int(c) < f.NumCategories(); c++ {
		fmt.Fprintf(bw, "c %d %s\n", f.Parent(c), f.Name(c))
	}

	g := d.Graph
	fmt.Fprintf(bw, "vertices %d\n", g.NumVertices())
	for v := graph.VertexID(0); int(v) < g.NumVertices(); v++ {
		pt := g.Point(v)
		if cats := g.Categories(v); len(cats) > 0 {
			parts := make([]string, len(cats))
			for i, c := range cats {
				parts[i] = strconv.Itoa(int(c))
			}
			if d.HasRatings() {
				fmt.Fprintf(bw, "p %g %g %s %g\n", pt.Lon, pt.Lat, strings.Join(parts, ","), d.Rating(v))
			} else {
				fmt.Fprintf(bw, "p %g %g %s\n", pt.Lon, pt.Lat, strings.Join(parts, ","))
			}
		} else {
			fmt.Fprintf(bw, "v %g %g\n", pt.Lon, pt.Lat)
		}
	}

	// Emit each logical edge once: for undirected graphs only the u<v arc.
	fmt.Fprintf(bw, "edges %d\n", g.NumEdges())
	emitted := 0
	for u := graph.VertexID(0); int(u) < g.NumVertices(); u++ {
		ts, ws := g.Neighbors(u)
		for i, t := range ts {
			if !g.Directed() && u > t {
				continue
			}
			fmt.Fprintf(bw, "e %d %d %g\n", u, t, ws[i])
			emitted++
		}
	}
	if emitted != g.NumEdges() {
		return fmt.Errorf("dataset: wrote %d edges, expected %d", emitted, g.NumEdges())
	}

	if g.TimeTable() != nil {
		count := 0
		eachProfiledEdge(g, func(u, v graph.VertexID, p graph.Profile) {
			count++
		})
		fmt.Fprintf(bw, "tprofiles %d %g\n", count, g.TimePeriod())
		eachProfiledEdge(g, func(u, v graph.VertexID, p graph.Profile) {
			fmt.Fprintf(bw, "t %d %d ", u, v)
			for i := range p.Times {
				if i > 0 {
					bw.WriteByte(',')
				}
				fmt.Fprintf(bw, "%g:%g", p.Times[i], p.Costs[i])
			}
			bw.WriteByte('\n')
		})
	}
	fmt.Fprintln(bw, "end")
	return bw.Flush()
}

// eachProfiledEdge visits every profiled endpoint pair once, in the
// canonical serialization order (the order of the e lines). Profiles are
// a property of the pair — live updates apply them to every parallel
// edge between the endpoints, and Read does the same — so parallel edges
// emit a single t line (the first arc's profile; with profiles attached
// through Edits/UpdateBatch all parallel arcs carry the same one).
func eachProfiledEdge(g *graph.Graph, fn func(u, v graph.VertexID, p graph.Profile)) {
	seen := map[[2]graph.VertexID]bool{}
	for u := graph.VertexID(0); int(u) < g.NumVertices(); u++ {
		ts, _ := g.Neighbors(u)
		base := g.ArcBase(u)
		for i, t := range ts {
			if !g.Directed() && u > t {
				continue
			}
			if p, ok := g.ArcProfile(base + int32(i)); ok {
				key := [2]graph.VertexID{u, t}
				if seen[key] {
					continue
				}
				seen[key] = true
				fn(u, t, p)
			}
		}
	}
}

// WriteFile serializes d to a file.
func WriteFile(path string, d *Dataset) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(file, d); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}

type parser struct {
	sc   *bufio.Scanner
	line int
}

func (p *parser) next() (string, bool) {
	for p.sc.Scan() {
		p.line++
		line := strings.TrimSpace(p.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		return line, true
	}
	return "", false
}

func (p *parser) fail(msg string, args ...any) error {
	return fmt.Errorf("%w: line %d: %s", ErrBadFormat, p.line, fmt.Sprintf(msg, args...))
}

// failWrap preserves a typed cause (graph.ErrBadProfile) alongside
// ErrBadFormat.
func (p *parser) failWrap(err error) error {
	return fmt.Errorf("%w: line %d: %w", ErrBadFormat, p.line, err)
}

// Read parses a dataset from r.
func Read(r io.Reader) (*Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	p := &parser{sc: sc}

	line, ok := p.next()
	if !ok || line != formatHeader {
		return nil, p.fail("missing header %q", formatHeader)
	}

	line, ok = p.next()
	if !ok || !strings.HasPrefix(line, "name ") {
		return nil, p.fail("expected name line")
	}
	name := strings.TrimPrefix(line, "name ")

	line, ok = p.next()
	if !ok || !strings.HasPrefix(line, "directed ") {
		return nil, p.fail("expected directed line")
	}
	directed, err := strconv.ParseBool(strings.TrimPrefix(line, "directed "))
	if err != nil {
		return nil, p.fail("bad directed flag: %v", err)
	}

	// Categories.
	line, ok = p.next()
	if !ok {
		return nil, p.fail("expected categories count")
	}
	var numCats int
	if _, err := fmt.Sscanf(line, "categories %d", &numCats); err != nil || numCats < 0 {
		return nil, p.fail("bad categories count %q", line)
	}
	fb := taxonomy.NewForestBuilder()
	for i := 0; i < numCats; i++ {
		line, ok = p.next()
		if !ok {
			return nil, p.fail("truncated category list (%d of %d)", i, numCats)
		}
		fields := strings.SplitN(line, " ", 3)
		if len(fields) != 3 || fields[0] != "c" {
			return nil, p.fail("bad category line %q", line)
		}
		parent, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, p.fail("bad category parent %q", fields[1])
		}
		catName := fields[2]
		var id taxonomy.CategoryID
		if parent < 0 {
			id, err = fb.AddRoot(catName)
		} else {
			id, err = fb.AddChild(taxonomy.CategoryID(parent), catName)
		}
		if err != nil {
			return nil, p.fail("category %q: %v", catName, err)
		}
		if int(id) != i {
			return nil, p.fail("category ids out of order")
		}
	}
	forest := fb.Build()

	// Vertices.
	line, ok = p.next()
	if !ok {
		return nil, p.fail("expected vertices count")
	}
	var numVerts int
	if _, err := fmt.Sscanf(line, "vertices %d", &numVerts); err != nil || numVerts < 0 {
		return nil, p.fail("bad vertices count %q", line)
	}
	gb := graph.NewBuilder(directed)
	var ratings []float64
	anyRating := false
	for i := 0; i < numVerts; i++ {
		line, ok = p.next()
		if !ok {
			return nil, p.fail("truncated vertex list (%d of %d)", i, numVerts)
		}
		fields := strings.Fields(line)
		switch {
		case fields[0] == "v" && len(fields) == 3:
			lon, err1 := strconv.ParseFloat(fields[1], 64)
			lat, err2 := strconv.ParseFloat(fields[2], 64)
			if err1 != nil || err2 != nil {
				return nil, p.fail("bad vertex coordinates %q", line)
			}
			gb.AddVertex(geo.Point{Lon: lon, Lat: lat})
			ratings = append(ratings, MaxRating)
		case fields[0] == "p" && (len(fields) == 4 || len(fields) == 5):
			lon, err1 := strconv.ParseFloat(fields[1], 64)
			lat, err2 := strconv.ParseFloat(fields[2], 64)
			if err1 != nil || err2 != nil {
				return nil, p.fail("bad PoI coordinates %q", line)
			}
			catStrs := strings.Split(fields[3], ",")
			cats := make([]taxonomy.CategoryID, 0, len(catStrs))
			for _, cs := range catStrs {
				c, err := strconv.Atoi(cs)
				if err != nil || c < 0 || c >= numCats {
					return nil, p.fail("bad PoI category %q", cs)
				}
				cats = append(cats, taxonomy.CategoryID(c))
			}
			v := gb.AddPoI(geo.Point{Lon: lon, Lat: lat}, cats[0])
			for _, c := range cats[1:] {
				gb.AddCategory(v, c)
			}
			rating := MaxRating
			if len(fields) == 5 {
				r, err := strconv.ParseFloat(fields[4], 64)
				if err != nil || r < 0 || r > MaxRating {
					return nil, p.fail("bad PoI rating %q", fields[4])
				}
				rating = r
				anyRating = true
			}
			ratings = append(ratings, rating)
		default:
			return nil, p.fail("bad vertex line %q", line)
		}
	}

	// Edges.
	line, ok = p.next()
	if !ok {
		return nil, p.fail("expected edges count")
	}
	var numEdges int
	if _, err := fmt.Sscanf(line, "edges %d", &numEdges); err != nil || numEdges < 0 {
		return nil, p.fail("bad edges count %q", line)
	}
	pairOf := func(u, v int) [2]int {
		if !directed && u > v {
			u, v = v, u
		}
		return [2]int{u, v}
	}
	edgeIdx := map[[2]int][]int{}
	for i := 0; i < numEdges; i++ {
		line, ok = p.next()
		if !ok {
			return nil, p.fail("truncated edge list (%d of %d)", i, numEdges)
		}
		var u, v int
		var w float64
		if _, err := fmt.Sscanf(line, "e %d %d %g", &u, &v, &w); err != nil {
			return nil, p.fail("bad edge line %q", line)
		}
		if u < 0 || u >= numVerts || v < 0 || v >= numVerts {
			return nil, p.fail("edge endpoint out of range in %q", line)
		}
		if w < 0 || math.IsNaN(w) {
			return nil, p.fail("negative or NaN edge weight in %q", line)
		}
		if u == v {
			return nil, p.fail("self-loop edge in %q", line)
		}
		idx := gb.AddEdge(graph.VertexID(u), graph.VertexID(v), w)
		key := pairOf(u, v)
		edgeIdx[key] = append(edgeIdx[key], idx)
	}

	line, ok = p.next()
	if ok && strings.HasPrefix(line, "tprofiles ") {
		var numProf int
		var period float64
		if _, err := fmt.Sscanf(line, "tprofiles %d %g", &numProf, &period); err != nil || numProf < 0 {
			return nil, p.fail("bad tprofiles header %q", line)
		}
		if err := gb.SetTimePeriod(period); err != nil {
			return nil, p.failWrap(err)
		}
		seenProf := map[[2]int]bool{}
		for i := 0; i < numProf; i++ {
			line, ok = p.next()
			if !ok {
				return nil, p.fail("truncated profile list (%d of %d)", i, numProf)
			}
			fields := strings.Fields(line)
			if len(fields) != 4 || fields[0] != "t" {
				return nil, p.fail("bad profile line %q", line)
			}
			u, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil || u < 0 || u >= numVerts || v < 0 || v >= numVerts {
				return nil, p.fail("bad profile endpoints in %q", line)
			}
			key := pairOf(u, v)
			idxs := edgeIdx[key]
			if len(idxs) == 0 {
				return nil, p.fail("profile for missing edge (%d,%d)", u, v)
			}
			if seenProf[key] {
				return nil, p.fail("duplicate profile for edge (%d,%d)", u, v)
			}
			seenProf[key] = true
			prof, err := parseProfile(fields[3])
			if err != nil {
				return nil, p.failWrap(err)
			}
			for _, idx := range idxs {
				if err := gb.SetEdgeProfile(idx, prof); err != nil {
					return nil, p.failWrap(err)
				}
			}
		}
		line, ok = p.next()
	}
	if !ok || line != "end" {
		return nil, p.fail("missing end marker")
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	d, err := New(name, gb.Build(), forest)
	if err != nil {
		return nil, err
	}
	if anyRating {
		if err := d.SetRatings(ratings); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// parseProfile parses the <time>:<cost>[,<time>:<cost>...] breakpoint
// list of a t line. Structural failures wrap graph.ErrBadProfile so
// callers reject them as invalid profiles, like the semantic checks in
// graph.Profile.Validate.
func parseProfile(bps string) (graph.Profile, error) {
	var prof graph.Profile
	for _, pair := range strings.Split(bps, ",") {
		tc := strings.Split(pair, ":")
		if len(tc) != 2 {
			return prof, fmt.Errorf("%w: bad breakpoint %q", graph.ErrBadProfile, pair)
		}
		tm, err1 := strconv.ParseFloat(tc[0], 64)
		c, err2 := strconv.ParseFloat(tc[1], 64)
		if err1 != nil || err2 != nil {
			return prof, fmt.Errorf("%w: bad breakpoint %q", graph.ErrBadProfile, pair)
		}
		prof.Times = append(prof.Times, tm)
		prof.Costs = append(prof.Costs, c)
	}
	return prof, nil
}

// ReadFile parses a dataset from a file.
func ReadFile(path string) (*Dataset, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	return Read(file)
}
