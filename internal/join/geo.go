package join

import (
	"fmt"
	"math"

	"github.com/arda-ml/arda/internal/dataframe"
)

// GeoNearest is the location-based soft join the paper leaves as future
// work (§9): a spec with exactly two soft key pairs — the x/y (or lon/lat)
// coordinates — matches each base row with the foreign row nearest in
// Euclidean distance, optionally within Tolerance, grouped by any hard keys.
const GeoNearest SoftMethod = 100

// geoValidate checks the structural constraints of a GeoNearest spec.
func geoValidate(s *Spec, base, foreign *dataframe.Table) error {
	soft := 0
	for _, kp := range s.Keys {
		if !base.HasColumn(kp.BaseColumn) {
			return fmt.Errorf("join: base table %q has no column %q", base.Name(), kp.BaseColumn)
		}
		if !foreign.HasColumn(kp.ForeignColumn) {
			return fmt.Errorf("join: foreign table %q has no column %q", foreign.Name(), kp.ForeignColumn)
		}
		if kp.Kind == Soft {
			soft++
			bc := base.Column(kp.BaseColumn)
			fc := foreign.Column(kp.ForeignColumn)
			if bc.Kind() != dataframe.Numeric || fc.Kind() != dataframe.Numeric {
				return fmt.Errorf("join: geo key %q/%q must be numeric", kp.BaseColumn, kp.ForeignColumn)
			}
		}
	}
	if soft != 2 {
		return fmt.Errorf("join: GeoNearest needs exactly 2 soft keys, got %d", soft)
	}
	return nil
}

// geoPoint is one foreign row's coordinates.
type geoPoint struct {
	x, y float64
	row  int
}

// geoGrid is a uniform-cell spatial index over a group's points.
type geoGrid struct {
	cell   float64
	points map[[2]int][]geoPoint
	all    []geoPoint
}

// newGeoGrid indexes points with a cell size adapted to the point density
// (or the tolerance when one is set).
func newGeoGrid(points []geoPoint, tolerance float64) *geoGrid {
	g := &geoGrid{points: make(map[[2]int][]geoPoint), all: points}
	if len(points) == 0 {
		g.cell = 1
		return g
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, p := range points {
		minX = math.Min(minX, p.x)
		maxX = math.Max(maxX, p.x)
		minY = math.Min(minY, p.y)
		maxY = math.Max(maxY, p.y)
	}
	span := math.Max(maxX-minX, maxY-minY)
	g.cell = span / math.Max(1, math.Sqrt(float64(len(points))))
	if tolerance > 0 && (g.cell == 0 || tolerance < g.cell) {
		g.cell = tolerance
	}
	if g.cell <= 0 {
		g.cell = 1
	}
	for _, p := range points {
		key := g.key(p.x, p.y)
		g.points[key] = append(g.points[key], p)
	}
	return g
}

// key returns the cell coordinates of a point.
func (g *geoGrid) key(x, y float64) [2]int {
	return [2]int{int(math.Floor(x / g.cell)), int(math.Floor(y / g.cell))}
}

// nearest returns the row index of the closest indexed point to (x, y) and
// the distance, searching expanding rings of cells. ok is false when no
// point exists.
func (g *geoGrid) nearest(x, y float64) (int, float64, bool) {
	if len(g.all) == 0 {
		return -1, 0, false
	}
	center := g.key(x, y)
	bestRow, bestDist := -1, math.Inf(1)
	// Any point in a cell at Chebyshev ring > r is at Euclidean distance
	// > r·cell from the query, so once bestDist <= ring·cell the search is
	// complete. A ring bound guards against sparse grids; beyond it we
	// brute-force the remainder.
	maxRing := 2 + int(math.Sqrt(float64(len(g.all))))
	for ring := 0; ring <= maxRing; ring++ {
		for cx := center[0] - ring; cx <= center[0]+ring; cx++ {
			for cy := center[1] - ring; cy <= center[1]+ring; cy++ {
				// Only the ring boundary; inner cells were already scanned.
				if ring > 0 && cx != center[0]-ring && cx != center[0]+ring &&
					cy != center[1]-ring && cy != center[1]+ring {
					continue
				}
				for _, p := range g.points[[2]int{cx, cy}] {
					d := math.Hypot(p.x-x, p.y-y)
					if d < bestDist {
						bestRow, bestDist = p.row, d
					}
				}
			}
		}
		if bestRow >= 0 && bestDist <= float64(ring)*g.cell {
			return bestRow, bestDist, true
		}
	}
	// Sparse or far-away queries: brute-force to guarantee exactness.
	for _, p := range g.all {
		d := math.Hypot(p.x-x, p.y-y)
		if d < bestDist {
			bestRow, bestDist = p.row, d
		}
	}
	return bestRow, bestDist, bestRow >= 0
}

// geoJoin matches base rows to the nearest foreign row in 2-D coordinate
// space, grouped by hard keys.
func geoJoin(base, foreign *dataframe.Table, spec *Spec, prefix string) (*Result, error) {
	var softPairs []KeyPair
	for _, kp := range spec.Keys {
		if kp.Kind == Soft {
			softPairs = append(softPairs, kp)
		}
	}
	hard := spec.hardKeys()
	baseHard := make([]dataframe.Column, len(hard))
	foreignHard := make([]dataframe.Column, len(hard))
	for i, kp := range hard {
		baseHard[i] = base.Column(kp.BaseColumn)
		foreignHard[i] = foreign.Column(kp.ForeignColumn)
	}
	bx := base.Column(softPairs[0].BaseColumn).(*dataframe.NumericColumn)
	by := base.Column(softPairs[1].BaseColumn).(*dataframe.NumericColumn)
	fx := foreign.Column(softPairs[0].ForeignColumn).(*dataframe.NumericColumn)
	fy := foreign.Column(softPairs[1].ForeignColumn).(*dataframe.NumericColumn)

	lookup, groups := buildGeoGroups(baseHard, foreignHard, fx, fy, foreign.NumRows())
	grids := make([]*geoGrid, len(groups))
	for g, pts := range groups {
		grids[g] = newGeoGrid(pts, spec.Tolerance)
	}

	match := make([]int, base.NumRows())
	matched := 0
	for i := range match {
		match[i] = -1
		if bx.IsMissing(i) || by.IsMissing(i) {
			continue
		}
		g := lookup(i)
		if g < 0 {
			continue
		}
		grid := grids[g]
		row, dist, found := grid.nearest(bx.Values[i], by.Values[i])
		if found && (spec.Tolerance <= 0 || dist <= spec.Tolerance) {
			match[i] = row
			matched++
		}
	}
	return assemble(base, foreign.Gather(match), spec, prefix, matched)
}

// buildGeoGroups partitions present foreign coordinate rows by hard composite
// key (hashed plane first, string keys on collision or unmodeled columns) and
// returns the point groups plus a base-row lookup resolving each base row to
// its group index (-1 when the base key is missing or unmatched). With no
// hard keys every row lands in one group.
func buildGeoGroups(baseHard, foreignHard []dataframe.Column, fx, fy *dataframe.NumericColumn, nForeign int) (lookup func(int) int, groups [][]geoPoint) {
	nHard := len(foreignHard)
	if h := newJoinHasher(baseHard, foreignHard); h != nil {
		index := make(map[uint64]int)
		rep := make([]int, 0, 8) // group -> representative foreign row
		collision := false
		for i := 0; i < nForeign; i++ {
			if fx.IsMissing(i) || fy.IsMissing(i) {
				continue
			}
			hk, ok := h.foreignKey(i)
			if !ok && nHard > 0 {
				continue
			}
			g, seen := index[hk]
			if !seen {
				g = len(groups)
				index[hk] = g
				groups = append(groups, nil)
				rep = append(rep, i)
			} else if !h.eqFF(i, rep[g]) {
				collision = true
				break
			}
			groups[g] = append(groups[g], geoPoint{x: fx.Values[i], y: fy.Values[i], row: i})
		}
		if !collision {
			return func(i int) int {
				hk, ok := h.baseKey(i)
				if !ok && nHard > 0 {
					return -1
				}
				g, seen := index[hk]
				if !seen || !h.eqBF(i, rep[g]) {
					return -1
				}
				return g
			}, groups
		}
		groups = nil
	}
	index := make(map[string]int)
	for i := 0; i < nForeign; i++ {
		if fx.IsMissing(i) || fy.IsMissing(i) {
			continue
		}
		hk, ok := compositeKey(foreignHard, i)
		if !ok && nHard > 0 {
			continue
		}
		g, seen := index[hk]
		if !seen {
			g = len(groups)
			index[hk] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], geoPoint{x: fx.Values[i], y: fy.Values[i], row: i})
	}
	return func(i int) int {
		hk, ok := compositeKey(baseHard, i)
		if !ok && nHard > 0 {
			return -1
		}
		g, seen := index[hk]
		if !seen {
			return -1
		}
		return g
	}, groups
}
