package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"skysr"
)

// The parent process turns a workload and a seed into two files — the
// binary dataset and the request plan — and the child that measures the
// workload reads nothing else. The road network of each workload is one
// fixed synthetic city (citySeed), as the paper evaluates on fixed real
// maps; the seed draws the traffic: start vertices, categories,
// destinations, departure times, top-k choices and the live-update
// stream. Regenerating the city per seed made the cross-seed spread of
// every latency metric several times the spread of the traffic alone.
const citySeed = 42

const (
	datasetFile = "dataset.skysrb"
	planFile    = "plan.json"
)

// PlanQuery is one request of the plan. Via indexes Plan.Via.
type PlanQuery struct {
	Start     int32   `json:"start"`
	Via       int     `json:"via"`
	Dest      int32   `json:"dest,omitempty"`
	HasDest   bool    `json:"has_dest,omitempty"`
	Unordered bool    `json:"unordered,omitempty"`
	K         int     `json:"k,omitempty"`
	Depart    float64 `json:"depart,omitempty"`
}

// PlanEdit is one edit of a live-update batch. Weights are given as
// factors of the edge's weight when the batch is applied, so the stream
// stays valid however often it is replayed.
type PlanEdit struct {
	// Op is raise, lower (SetEdgeWeight by Factor), profile (a rush-hour
	// profile whose minimum is the current weight), unprofile
	// (ClearEdgeProfile) or recategorize (Category onto PoI U).
	Op       string  `json:"op"`
	U        int32   `json:"u"`
	V        int32   `json:"v,omitempty"`
	Factor   float64 `json:"factor,omitempty"`
	Category string  `json:"category,omitempty"`
}

// Plan is the request stream of one run. Runs consume Queries in order,
// wrapping around when a fast machine exhausts them.
type Plan struct {
	Workload string       `json:"workload"`
	Seed     int64        `json:"seed"`
	Via      [][]string   `json:"via"`
	Queries  []PlanQuery  `json:"queries"`
	Updates  [][]PlanEdit `json:"updates,omitempty"`
}

// query materializes request i (modulo the plan length).
func (p *Plan) query(i int) skysr.Query {
	pq := p.Queries[i%len(p.Queries)]
	q := skysr.Query{Start: pq.Start, Unordered: pq.Unordered}
	for _, name := range p.Via[pq.Via] {
		q.Via = append(q.Via, skysr.Category(name))
	}
	if pq.HasDest {
		q.Destination, q.HasDestination = pq.Dest, true
	}
	return q
}

// options returns the deployment profile with request i's own fields.
func (p *Plan) options(i int) skysr.SearchOptions {
	pq := p.Queries[i%len(p.Queries)]
	o := deployment()
	o.TopK = pq.K
	o.DepartAt = pq.Depart
	return o
}

// deployment is the skysr-serve default serving profile: category index
// on, no contraction hierarchy.
func deployment() skysr.SearchOptions {
	return skysr.SearchOptions{UseCategoryIndex: true}
}

// planBuilder accumulates a plan, interning via lists.
type planBuilder struct {
	p     *Plan
	vias  map[string]int
	names map[string]string // fmt %#v of Category(name) → name
}

func newPlanBuilder(e *skysr.Engine, w *workload, seed int64) *planBuilder {
	b := &planBuilder{
		p:     &Plan{Workload: w.name, Seed: seed},
		vias:  map[string]int{},
		names: map[string]string{},
	}
	for _, name := range e.Categories() {
		b.names[fmt.Sprintf("%#v", skysr.Category(name))] = name
	}
	return b
}

// add appends q with the given extra fields. Engine.Workload builds plain
// category requirements; their names are recovered by comparing against
// skysr.Category(name) for every category of the dataset.
func (b *planBuilder) add(q skysr.Query, pq PlanQuery) error {
	names := make([]string, len(q.Via))
	for i, r := range q.Via {
		name, ok := b.names[fmt.Sprintf("%#v", r)]
		if !ok {
			return fmt.Errorf("workload requirement %d is not a plain category", i)
		}
		names[i] = name
	}
	key := strings.Join(names, "\x00")
	id, ok := b.vias[key]
	if !ok {
		id = len(b.p.Via)
		b.vias[key] = id
		b.p.Via = append(b.p.Via, names)
	}
	pq.Start, pq.Via = q.Start, id
	b.p.Queries = append(b.p.Queries, pq)
	return nil
}

// inputs are the files one run measures, with their fingerprints.
type inputs struct {
	Dir     string
	Dataset string
	Plan    *Plan
	// Fingerprints maps each input file name to its sha256.
	Fingerprints map[string]string
}

// generate builds the workload's city at the given scale multiplier and its
// plan from seed, writes both into dir and fingerprints them.
func generate(w *workload, seed int64, scaleMul float64, dir string) (*inputs, error) {
	e, err := skysr.Generate(w.preset, w.scale*scaleMul, citySeed)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", w.preset, err)
	}
	if w.profiles > 0 {
		if _, err := e.AttachTimeProfiles(w.profiles, citySeed); err != nil {
			return nil, fmt.Errorf("attach time profiles: %w", err)
		}
	}
	b := newPlanBuilder(e, w, seed)
	if err := w.plan(e, rand.New(rand.NewSource(seed)), seed, b); err != nil {
		return nil, fmt.Errorf("plan %s: %w", w.name, err)
	}
	in := &inputs{Dir: dir, Dataset: filepath.Join(dir, datasetFile), Plan: b.p}
	if err := e.SaveBinary(in.Dataset); err != nil {
		return nil, fmt.Errorf("save dataset: %w", err)
	}
	raw, err := json.Marshal(b.p)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, planFile), raw, 0o644); err != nil {
		return nil, fmt.Errorf("write plan: %w", err)
	}
	in.Fingerprints = map[string]string{}
	for _, name := range []string{datasetFile, planFile} {
		sum, err := fileSHA256(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		in.Fingerprints[name] = sum
	}
	return in, nil
}

// loadInputs reads what generate wrote.
func loadInputs(dir string) (*inputs, error) {
	raw, err := os.ReadFile(filepath.Join(dir, planFile))
	if err != nil {
		return nil, err
	}
	p := new(Plan)
	if err := json.Unmarshal(raw, p); err != nil {
		return nil, fmt.Errorf("decode plan: %w", err)
	}
	if len(p.Queries) == 0 {
		return nil, fmt.Errorf("plan has no queries")
	}
	return &inputs{Dir: dir, Dataset: filepath.Join(dir, datasetFile), Plan: p}, nil
}

func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// randomEdge picks an edge u–v of the network uniformly by start vertex.
func randomEdge(e *skysr.Engine, rng *rand.Rand) (int32, int32) {
	for {
		u := int32(rng.Intn(e.NumVertices()))
		ts, _ := e.Neighbors(u)
		if len(ts) > 0 {
			return u, ts[rng.Intn(len(ts))]
		}
	}
}

// edgeKey identifies an edge regardless of direction; one batch may name
// each edge once.
func edgeKey(u, v int32) [2]int32 {
	return [2]int32{min(u, v), max(u, v)}
}

// updateStream draws n live-update batches: six weight increases, one
// profile set or clear (alternating on the same edge, so every clear
// removes a profile the previous batch set), one recategorization, and in
// every fifth batch one weight decrease, which drops every index row.
func updateStream(e *skysr.Engine, rng *rand.Rand, n int) [][]PlanEdit {
	pois := e.PoIVertices()
	leaves := e.LeafCategories()
	var out [][]PlanEdit
	var profiled [2]int32
	for j := 0; j < n; j++ {
		used := map[[2]int32]bool{}
		pick := func() (int32, int32) {
			for {
				u, v := randomEdge(e, rng)
				if k := edgeKey(u, v); !used[k] {
					used[k] = true
					return u, v
				}
			}
		}
		var batch []PlanEdit
		if j%2 == 1 {
			used[edgeKey(profiled[0], profiled[1])] = true
			batch = append(batch, PlanEdit{Op: "unprofile", U: profiled[0], V: profiled[1]})
		}
		for k := 0; k < 6; k++ {
			u, v := pick()
			batch = append(batch, PlanEdit{Op: "raise", U: u, V: v, Factor: 1.05 + 0.45*rng.Float64()})
		}
		if j%2 == 0 {
			u, v := pick()
			profiled = [2]int32{u, v}
			batch = append(batch, PlanEdit{Op: "profile", U: u, V: v, Factor: 1.3 + 0.7*rng.Float64()})
		}
		batch = append(batch, PlanEdit{Op: "recategorize", U: pois[rng.Intn(len(pois))], Category: leaves[rng.Intn(len(leaves))]})
		if j%5 == 4 {
			u, v := pick()
			batch = append(batch, PlanEdit{Op: "lower", U: u, V: v, Factor: 0.7 + 0.25*rng.Float64()})
		}
		out = append(out, batch)
	}
	return out
}

// updateBatch turns plan edits into an UpdateBatch against the engine's
// current weights.
func updateBatch(e *skysr.Engine, edits []PlanEdit) (*skysr.UpdateBatch, error) {
	b := new(skysr.UpdateBatch)
	for _, ed := range edits {
		switch ed.Op {
		case "recategorize":
			b.Recategorize(ed.U, ed.Category)
			continue
		case "unprofile":
			b.ClearEdgeProfile(ed.U, ed.V)
			continue
		}
		w, ok := edgeWeight(e, ed.U, ed.V)
		if !ok {
			return nil, fmt.Errorf("update names missing edge (%d,%d)", ed.U, ed.V)
		}
		switch ed.Op {
		case "raise", "lower":
			b.SetEdgeWeight(ed.U, ed.V, w*ed.Factor)
		case "profile":
			times, costs := rushHour(w, ed.Factor, e.TimePeriod())
			b.SetEdgeProfile(ed.U, ed.V, times, costs)
		default:
			return nil, fmt.Errorf("unknown update op %q", ed.Op)
		}
	}
	return b, nil
}

func edgeWeight(e *skysr.Engine, u, v int32) (float64, bool) {
	ts, ws := e.Neighbors(u)
	for i, t := range ts {
		if t == v {
			return ws[i], true
		}
	}
	return 0, false
}

// rushHour is a two-peak travel-time profile with minimum w (so the
// lower-bound graph, and every index row, is unchanged) and peak factor f,
// capped so no segment falls faster than real time (the FIFO contract).
func rushHour(w, f, period float64) ([]float64, []float64) {
	ramp := 0.05 * period
	if w > 0 {
		f = math.Min(f, 1+ramp/w)
	}
	times := []float64{0, 0.30 * period, 0.35 * period, 0.40 * period, 0.70 * period, 0.75 * period, 0.80 * period}
	costs := []float64{w, w, w * f, w, w, w * f, w}
	return times, costs
}
