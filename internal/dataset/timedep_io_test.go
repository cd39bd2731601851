package dataset

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"skysr/internal/geo"
	"skysr/internal/graph"
	"skysr/internal/taxonomy"
)

// tdFixture builds a dataset with a profiled and a static edge.
func tdFixture(t testing.TB) *Dataset {
	t.Helper()
	fb := taxonomy.NewForestBuilder()
	root, _ := fb.AddRoot("Food")
	leaf, err := fb.AddChild(root, "Pizza")
	if err != nil {
		t.Fatal(err)
	}
	f := fb.Build()
	b := graph.NewBuilder(false)
	if err := b.SetTimePeriod(100); err != nil {
		t.Fatal(err)
	}
	b.AddVertex(geo.Point{})
	b.AddVertex(geo.Point{Lon: 1})
	b.AddPoI(geo.Point{Lon: 2}, leaf)
	e01 := b.AddEdge(0, 1, 7)
	b.AddEdge(1, 2, 3)
	if err := b.SetEdgeProfile(e01, graph.Profile{
		Times: []float64{0, 20, 60},
		Costs: []float64{4, 9.5, 4},
	}); err != nil {
		t.Fatal(err)
	}
	return MustNew("td", b.Build(), f)
}

func TestTimeProfileRoundTrip(t *testing.T) {
	d := tdFixture(t)
	var first bytes.Buffer
	if err := Write(&first, d); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(first.String(), "tprofiles 1 100") {
		t.Fatalf("serialization lacks tprofiles section:\n%s", first.String())
	}
	back, err := Read(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !back.Graph.HasTimeProfiles() || back.Graph.TimePeriod() != 100 {
		t.Fatal("profiles lost on read")
	}
	// The profiled edge's weight column is the profile minimum.
	if w, _ := back.Graph.EdgeWeight(0, 1); w != 4 {
		t.Fatalf("lower-bound weight = %v, want 4", w)
	}
	var second bytes.Buffer
	if err := Write(&second, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("round trip not byte-identical:\n%s\nvs\n%s", first.String(), second.String())
	}
	// Static datasets keep the classic serialization (no section at all).
	var staticBuf bytes.Buffer
	fb := taxonomy.NewForestBuilder()
	fb.AddRoot("X")
	sb := graph.NewBuilder(false)
	sb.AddVertex(geo.Point{})
	if err := Write(&staticBuf, MustNew("s", sb.Build(), fb.Build())); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(staticBuf.String(), "tprofiles") {
		t.Fatal("static dataset serialized a tprofiles section")
	}
}

// tdText assembles a dataset file around the given tprofiles lines.
func tdText(profileLines string) string {
	return `skysr-dataset v1
name t
directed false
categories 1
c -1 Root
vertices 3
v 0 0
v 1 0
p 2 0 0
edges 2
e 0 1 5
e 1 2 3
` + profileLines + "end\n"
}

func TestTimeProfileRejection(t *testing.T) {
	cases := []struct {
		name    string
		text    string
		profile bool // expect graph.ErrBadProfile in the chain
	}{
		{"non-FIFO", tdText("tprofiles 1 100\nt 0 1 0:50,1:0\n"), true},
		{"unsorted breakpoints", tdText("tprofiles 1 100\nt 0 1 50:5,10:6\n"), true},
		{"negative cost", tdText("tprofiles 1 100\nt 0 1 0:-1\n"), true},
		{"time past period", tdText("tprofiles 1 100\nt 0 1 150:1\n"), true},
		{"bad period", tdText("tprofiles 1 -5\nt 0 1 0:1\n"), true},
		{"garbage breakpoint", tdText("tprofiles 1 100\nt 0 1 0:1,x:y\n"), true},
		{"missing edge", tdText("tprofiles 1 100\nt 0 2 0:1\n"), false},
		{"duplicate profile", tdText("tprofiles 2 100\nt 0 1 0:1\nt 1 0 0:2\n"), false},
		{"truncated list", tdText("tprofiles 2 100\nt 0 1 0:1\n"), false},
		{"bad header", tdText("tprofiles x 100\nt 0 1 0:1\n"), false},
	}
	for _, c := range cases {
		_, err := Read(strings.NewReader(c.text))
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: error %v does not wrap ErrBadFormat", c.name, err)
		}
		if c.profile && !errors.Is(err, graph.ErrBadProfile) {
			t.Errorf("%s: error %v does not wrap graph.ErrBadProfile", c.name, err)
		}
	}
	// A valid section parses and evaluates.
	d, err := Read(strings.NewReader(tdText("tprofiles 1 100\nt 0 1 0:5,50:9\n")))
	if err != nil {
		t.Fatal(err)
	}
	g := d.Graph
	ts, _ := g.Neighbors(0)
	for i, v := range ts {
		if v == 1 {
			if got := g.CostAt(g.ArcBase(0)+int32(i), 25); got != 7 {
				t.Fatalf("CostAt(25) = %v, want 7", got)
			}
		}
	}
}

// TestParallelProfiledEdgesRoundTrip pins the pair semantics of the
// tprofiles section: a profile on a pair with parallel edges serializes
// to one t line and survives a write → read → write round trip.
func TestParallelProfiledEdgesRoundTrip(t *testing.T) {
	text := `skysr-dataset v1
name par
directed false
categories 1
c -1 Root
vertices 2
v 0 0
p 1 0 0
edges 2
e 0 1 5
e 0 1 7
end
`
	d, err := Read(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	g, err := d.Graph.Apply(graph.Edits{SetProfiles: []graph.ProfileChange{
		{U: 0, V: 1, Profile: graph.Profile{Times: []float64{0, 40000}, Costs: []float64{3, 6}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	pd, err := New("par", g, d.Forest)
	if err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	if err := Write(&first, pd); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(first.String(), "\nt "); got != 1 {
		t.Fatalf("parallel pair emitted %d t lines, want 1:\n%s", got, first.String())
	}
	back, err := Read(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("re-reading own serialization failed: %v", err)
	}
	var second bytes.Buffer
	if err := Write(&second, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("parallel-profile round trip not byte-identical:\n%s\nvs\n%s", first.String(), second.String())
	}
}

// TestEmptyProfileSectionKeepsPeriod pins period persistence: a dataset
// that declared a time domain keeps it across serialization even with no
// profiled edges left.
func TestEmptyProfileSectionKeepsPeriod(t *testing.T) {
	d, err := Read(strings.NewReader(tdText("tprofiles 0 100\n")))
	if err != nil {
		t.Fatal(err)
	}
	if d.Graph.TimePeriod() != 100 {
		t.Fatalf("declared period lost on read: %v", d.Graph.TimePeriod())
	}
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "tprofiles 0 100") {
		t.Fatalf("empty section not persisted:\n%s", buf.String())
	}
	// Clearing the last profile of a profiled dataset keeps its period.
	td := tdFixture(t)
	g, err := td.Graph.Apply(graph.Edits{SetProfiles: []graph.ProfileChange{{U: 0, V: 1, Clear: true}}})
	if err != nil {
		t.Fatal(err)
	}
	cleared, err := New("td", g, td.Forest)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := Write(&buf, cleared); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "tprofiles 0 100") {
		t.Fatalf("period lost after clearing last profile:\n%s", buf.String())
	}
}
