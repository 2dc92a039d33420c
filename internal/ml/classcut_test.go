package ml

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// codedNode is one classification node over a split set with rank codes: a
// builder set up for the tree over the bootstrap multiplicities cnt, and the
// node's units.
type codedNode struct {
	b  *treeBuilder
	ss *splitSet
}

// newCodedNode builds the split set of ds (orders and codes) and a builder
// for the tree over the per-row multiplicities cnt.
func newCodedNode(ds *Dataset, cnt []int32, minLeaf int) codedNode {
	ss := buildSplitSet(ds, 1, true)
	ws := &treeWorkspace{cnt: cnt}
	b := &treeBuilder{}
	b.initUnits(ss, TreeConfig{MinLeaf: minLeaf}, nil, ws)
	b.scols = ss.cols
	return codedNode{b, ss}
}

// cut scores ordered column feat over the node holding units with the
// histogram cut, and gives it the threshold bestSplit would.
func (cn codedNode) cut(feat int, units []int32) (cut, nodeTotals) {
	nt, _ := cn.b.nodeStats(units)
	sc := &cn.ss.cols[feat]
	c := cn.b.classCut(sc, units, &nt)
	if !math.IsInf(c.score, -1) {
		c.thr = midpoint(sc.codes.vals[c.lo], sc.codes.vals[c.hi])
	}
	return c, nt
}

// scan scores it with the test-kept sorted-sequence scan: the node's units
// sorted by (value, unit), with their labels and multiplicities.
func (cn codedNode) scan(feat int, units []int32, nt *nodeTotals) (float64, float64) {
	b, col := cn.b, cn.ss.cols[feat].v
	byUnit, ord := make([]float64, b.units), append([]int32(nil), units...)
	for _, u := range units {
		byUnit[u] = col[b.rowOf[u]]
	}
	sortOrder(byUnit, ord)
	vals, labels, wts := make([]float64, len(ord)), make([]int32, len(ord)), make([]float64, len(ord))
	for i, u := range ord {
		vals[i], labels[i], wts[i] = byUnit[u], b.ws.labels[u], b.ws.wt[u]
	}
	lcnt, rcnt := make([]float64, b.classes), make([]float64, b.classes)
	return scanSplitsClass(vals, labels, wts, lcnt, rcnt, nt.imp, b.cfg.MinLeaf)
}

// boundaries counts the adjacent distinct values of column feat over units:
// the boundaries a cut can consider.
func (cn codedNode) boundaries(feat int, units []int32) int {
	seen := map[int]bool{}
	for _, u := range units {
		seen[codeAt(&cn.ss.cols[feat], cn.b.rowOf[u])] = true
	}
	return len(seen) - 1
}

// codeAt is row r's rank code in column sc, whatever its width.
func codeAt(sc *SplitColumn, r int32) int {
	switch {
	case sc.codes.u8 != nil:
		return int(sc.codes.u8[r])
	case sc.codes.u16 != nil:
		return int(sc.codes.u16[r])
	}
	return int(sc.codes.u32[r])
}

// sameCut reports whether the histogram cut equals the scan's (threshold,
// gain) bit for bit; without an admissible boundary only the -Inf score is
// defined.
func sameCut(c cut, thr, gain float64) bool {
	if math.IsInf(gain, -1) {
		return math.IsInf(c.score, -1)
	}
	return math.Float64bits(c.thr) == math.Float64bits(thr) && math.Float64bits(c.score) == math.Float64bits(gain)
}

// codedColumn draws one column of n values of the given kind: few levels
// (heavy ties), signed zeros among ±1, or continuous.
func codedColumn(rng *rand.Rand, n, kind int) []float64 {
	v := make([]float64, n)
	for i := range v {
		switch kind {
		case 0:
			v[i] = float64(rng.Intn(5)) / 4
		case 1:
			v[i] = [...]float64{math.Copysign(0, -1), 0, 1, -1}[rng.Intn(4)]
		default:
			v[i] = rng.NormFloat64()
		}
	}
	return v
}

// TestClassCutMatchesScan: the rank-code histogram cut is bit-equal — gain
// and threshold — to the test-kept scan over the node's value-sorted units,
// for k = 2..5 classes, columns with heavy ties, signed zeros (which share a
// code) and continuous values, bootstrap multiplicities, every MinLeaf from 1
// to 5 and nodes from the whole bootstrap down to a handful of units. On a
// continuous column that carries no signal, the screen lets fewer than 10%
// of the boundaries through to an exact gain.
func TestClassCutMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	evals, bounds := 0, 0
	widths := map[bool]bool{} // one-byte codes (few values) and two-byte ones (continuous)
	for k := 2; k <= 5; k++ {
		const n, d = 400, 6
		x, y := make([]float64, n*d), make([]float64, n)
		for j := 0; j < d; j++ {
			for i, v := range codedColumn(rng, n, j%3) {
				x[i*d+j] = v
			}
		}
		for i := range y {
			y[i] = float64(rng.Intn(k))
			if x[i*d+2] > 0.3 { // some signal, so gains differ
				y[i] = float64(k - 1)
			}
		}
		ds := mustDataset(x, n, d, y, Classification, k)
		cnt := make([]int32, n)
		for i := 0; i < n; i++ {
			cnt[rng.Intn(n)]++
		}
		for minLeaf := 1; minLeaf <= 5; minLeaf++ {
			cn := newCodedNode(ds, cnt, minLeaf)
			for trial := 0; trial < 12; trial++ {
				units := make([]int32, cn.b.units)
				for i := range units {
					units[i] = int32(i)
				}
				rng.Shuffle(len(units), func(i, j int) { units[i], units[j] = units[j], units[i] })
				if trial > 0 {
					units = units[:1+rng.Intn(len(units))]
				}
				for feat := 0; feat < d; feat++ {
					if cn.ss.cols[feat].mask != nil {
						continue
					}
					widths[cn.ss.cols[feat].codes.u8 != nil] = true
					c, nt := cn.cut(feat, units)
					thr, gain := cn.scan(feat, units, &nt)
					if !sameCut(c, thr, gain) {
						t.Fatalf("k=%d minLeaf=%d trial %d feature %d: histogram cut (%v, %v), scan (%v, %v)",
							k, minLeaf, trial, feat, c.thr, c.score, thr, gain)
					}
					if feat == 5 && trial == 0 { // the continuous noise column, over the whole node
						evals += int(c.screened)
						bounds += cn.boundaries(feat, units)
					}
				}
			}
		}
	}
	if bounds == 0 || float64(evals) >= 0.1*float64(bounds) {
		t.Fatalf("the screen let %d of %d boundaries through to an exact gain, want fewer than 10%%", evals, bounds)
	}
	if len(widths) != 2 {
		t.Fatalf("code widths cut (one byte?): %v, want both one- and two-byte codes", widths)
	}
	t.Logf("exact gains at %d of %d boundaries (%.1f%%)", evals, bounds, 100*float64(evals)/float64(bounds))
}

// TestClassCutManyCodes: a column of more than 65,536 distinct values takes
// four-byte codes and a three-level code set; the cut still equals the scan.
func TestClassCutManyCodes(t *testing.T) {
	const n = 70000
	rng := rand.New(rand.NewSource(62))
	x, y := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = float64(rng.Intn(3))
		if x[i] > 1 && rng.Intn(2) == 0 {
			y[i] = 2
		}
	}
	cnt := make([]int32, n)
	for i := 0; i < n; i++ {
		cnt[rng.Intn(n)]++
	}
	cn := newCodedNode(mustDataset(x, n, 1, y, Classification, 3), cnt, 3)
	if levels := newCodeMarks(cn.ss.codes).levels; cn.ss.codes <= 65536 || levels != 3 || cn.ss.cols[0].codes.u32 == nil {
		t.Fatalf("%d codes in %d levels, want more than 65,536, four bytes each, in 3", cn.ss.codes, levels)
	}
	units := make([]int32, cn.b.units)
	for i := range units {
		units[i] = int32(i)
	}
	for _, size := range []int{len(units), 5000, 70, 3} {
		rng.Shuffle(len(units), func(i, j int) { units[i], units[j] = units[j], units[i] })
		c, nt := cn.cut(0, units[:size])
		if thr, gain := cn.scan(0, units[:size], &nt); !sameCut(c, thr, gain) {
			t.Fatalf("%d units: histogram cut (%v, %v), scan (%v, %v)", size, c.thr, c.score, thr, gain)
		}
	}
}

// TestCodeMarks: filling a histogram over any multiset of codes and walking
// the marks visits exactly the distinct codes in ascending order, each
// cell holding its code's multiplicity, and leaves every word zero — at one
// to four levels.
func TestCodeMarks(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for _, tc := range []struct{ codes, levels int }{{1, 1}, {64, 1}, {65, 2}, {4096, 2}, {4097, 3}, {262145, 4}} {
		m := newCodeMarks(tc.codes)
		if m.levels != tc.levels {
			t.Fatalf("%d codes: %d levels, want %d", tc.codes, m.levels, tc.levels)
		}
		w, hist, cls := make([]uint64, m.off[m.levels]), make([]int32, tc.codes), make([]uint64, tc.codes)
		for trial := 0; trial < 20; trial++ {
			want := map[int]int32{}
			var codes []uint32
			for i := rng.Intn(200); i >= 0; i-- {
				c := rng.Intn(tc.codes)
				if trial%2 == 1 {
					c = tc.codes - 1 - rng.Intn(min(tc.codes, 3)) // the top of the range
				}
				want[c]++
				codes = append(codes, uint32(c))
			}
			units, ones := identity(len(codes)), make([]int32, len(codes))
			for i := range ones {
				ones[i] = 1
			}
			fill(&m, hist, cls, w, 1, units, codes, units, make([]int32, len(codes)), ones)
			var got []int
			for i := m.first(w); i >= 0; i = m.next(w, i) {
				for word := w[i]; word != 0; word &= word - 1 {
					c := i<<6 | trailingZeros(word)
					if hist[c] != want[c] || cls[c] != 1 {
						t.Fatalf("%d codes, trial %d: code %d counted %d with classes %#x, want %d with 0x1", tc.codes, trial, c, hist[c], cls[c], want[c])
					}
					hist[c], cls[c] = 0, 0
					got = append(got, c)
				}
				w[i] = 0
			}
			var wantList []int
			for c := range want {
				wantList = append(wantList, c)
			}
			slices.Sort(wantList)
			if !slices.Equal(got, wantList) {
				t.Fatalf("%d codes, trial %d: walked %v, want %v", tc.codes, trial, got, wantList)
			}
			for i, x := range w {
				if x != 0 {
					t.Fatalf("%d codes, trial %d: word %d left %#x after the walk", tc.codes, trial, i, x)
				}
			}
		}
	}
}

func trailingZeros(x uint64) int {
	n := 0
	for x&1 == 0 {
		x >>= 1
		n++
	}
	return n
}

// nearTies counts the scores within 4 ulp of best that differ from it: the
// boundaries an over-eager screen could wrongly skip.
func nearTies(scores []float64, best float64) int {
	n := 0
	for _, s := range scores {
		if s != best && math.Abs(s-best) <= 4*ulp(best) {
			n++
		}
	}
	return n
}

func ulp(x float64) float64 {
	x = math.Abs(x)
	return math.Nextafter(x, math.Inf(1)) - x
}

// TestScreenKeepsTheArgmax: on adversarial near-ties — mirrored labels
// (class c and k-1-c at mirrored ranks, so boundaries a and n-a gain alike)
// and a block of labels repeated (every block end gains alike), the column
// distinct or tied within each block — the screened histogram cut is
// bit-equal to the test-kept scan, and the cases do hold gains within a few
// ulp of the winner, which a screen without its margin could skip.
func TestScreenKeepsTheArgmax(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	ties := 0
	for trial := 0; trial < 40; trial++ {
		k := 2 + trial%4
		var x, y []float64
		if trial%2 == 0 {
			half := 4 + rng.Intn(80)
			x, y = make([]float64, 2*half), make([]float64, 2*half)
			for i := 0; i < half; i++ {
				c := rng.Intn(k)
				y[i], y[2*half-1-i] = float64(c), float64(k-1-c)
			}
		} else {
			block := make([]float64, 2+rng.Intn(9))
			for i := range block {
				block[i] = float64(rng.Intn(k))
			}
			for r := 3 + rng.Intn(12); r > 0; r-- {
				y = append(y, block...)
			}
			x = make([]float64, len(y))
		}
		tied := trial%4 == 1
		for i := range x {
			x[i] = float64(i)
			if tied {
				x[i] = float64(i / (len(y) / 3))
			}
		}
		n := len(y)
		cnt := make([]int32, n)
		for i := range cnt {
			cnt[i] = 1 + int32(rng.Intn(2))*int32(trial%3/2)
		}
		ds := mustDataset(x, n, 1, y, Classification, k)
		for minLeaf := 1; minLeaf <= 3; minLeaf++ {
			cn := newCodedNode(ds, cnt, minLeaf)
			units := identity(cn.b.units)
			c, nt := cn.cut(0, units)
			thr, gain := cn.scan(0, units, &nt)
			if !sameCut(c, thr, gain) {
				t.Fatalf("classification trial %d minLeaf %d: screened (%v, %v), scan (%v, %v)", trial, minLeaf, c.thr, c.score, thr, gain)
			}
			ties += nearTies(classGains(cn, units, &nt), gain)
		}
	}
	if ties == 0 {
		t.Fatal("no classification case holds a near-tie: the test cannot catch a skipped winner")
	}
	t.Logf("classification: %d near-ties", ties)
}

// classGains lists the exact Gini gain of every boundary of column 0 over the
// node, in the kernel's formula, from the class counts left of it.
func classGains(cn codedNode, units []int32, nt *nodeTotals) []float64 {
	b, sc := cn.b, &cn.ss.cols[0]
	byCode := make([][]float64, len(sc.codes.vals))
	for _, u := range units {
		c := codeAt(sc, b.rowOf[u])
		if byCode[c] == nil {
			byCode[c] = make([]float64, b.classes)
		}
		byCode[c][b.ws.labels[u]] += b.ws.wt[u]
	}
	left := make([]float64, b.classes)
	var gains []float64
	nl := 0.0
	for _, h := range byCode {
		if h == nil {
			continue
		}
		if nr := nt.n - nl; nl > 0 {
			leftSq, rightSq := 0.0, 0.0
			for cls, l := range left {
				r := b.ws.tcnt[cls] - l
				leftSq, rightSq = leftSq+l*l, rightSq+r*r
			}
			giniL, giniR := 1-leftSq/(nl*nl), 1-rightSq/(nr*nr)
			gains = append(gains, nt.imp-float64((nl/nt.n)*giniL)-float64((nr/nt.n)*giniR))
		}
		for cls, x := range h {
			left[cls] += x
			nl += x
		}
	}
	return gains
}
