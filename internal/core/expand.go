package core

import (
	"fmt"
	"math"

	"skysr/internal/dijkstra"
	"skysr/internal/graph"
	"skysr/internal/route"
)

// ExpandPath reconstructs the full vertex-level path of a result route:
// start → PoIs in order → optional destination (graph.NoVertex for none).
// Each leg is a shortest path under the query's metric — on
// time-dependent datasets each leg departs when the previous one
// arrives — so the total cost equals the route's length score (plus the
// destination leg when present).
func (s *Searcher) ExpandPath(start graph.VertexID, r *route.Route, dest graph.VertexID) ([]graph.VertexID, error) {
	waypoints := append([]graph.VertexID{start}, r.PoIs()...)
	if dest != graph.NoVertex {
		waypoints = append(waypoints, dest)
	}
	path := []graph.VertexID{start}
	depart := s.depart
	for i := 0; i+1 < len(waypoints); i++ {
		u, v := waypoints[i], waypoints[i+1]
		if u == v {
			continue
		}
		leg, legCost, err := s.shortestPath(u, v, depart)
		if err != nil {
			return nil, err
		}
		depart += legCost
		path = append(path, leg[1:]...)
	}
	return path, nil
}

// PathLength returns the summed edge weight along a vertex path.
func (s *Searcher) PathLength(path []graph.VertexID) float64 {
	total := 0.0
	for i := 0; i+1 < len(path); i++ {
		w, ok := s.d.Graph.EdgeWeight(path[i], path[i+1])
		if !ok {
			return math.Inf(1)
		}
		total += w
	}
	return total
}

func (s *Searcher) shortestPath(u, v graph.VertexID, depart float64) ([]graph.VertexID, float64, error) {
	cost := 0.0
	found := false
	s.ws.Run(dijkstra.Options{
		Sources:       []graph.VertexID{u},
		TimeDependent: s.td,
		DepartAt:      depart,
		Halt:          s.cc.halt(),
		OnSettle: func(x graph.VertexID, d float64) dijkstra.Control {
			if x == v {
				found, cost = true, d
				return dijkstra.Stop
			}
			return dijkstra.Continue
		},
	})
	if !found {
		if err := s.cc.err; err != nil {
			return nil, 0, err
		}
		return nil, 0, fmt.Errorf("core: no path from %d to %d", u, v)
	}
	return s.ws.PathTo(v), cost, nil
}
