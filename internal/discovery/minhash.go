package discovery

import (
	"hash/fnv"
	"math"
)

// MinHash signatures let discovery estimate value overlap between columns
// without materializing distinct-value sets — the profiling trick systems
// like Aurum use to scale join discovery to large repositories. A signature
// is the minimum of k independent hash permutations over the column's
// distinct values; the fraction of agreeing coordinates between two
// signatures estimates their Jaccard similarity, which combined with the
// set sizes yields a containment estimate.
type MinHash struct {
	mins []uint64
	// Size is the number of distinct values hashed (needed to convert
	// Jaccard to containment).
	Size int
}

// minHashK is the signature width; 128 coordinates give a Jaccard standard
// error of about 1/√128 ≈ 0.09.
const minHashK = 128

// hashParams are the per-coordinate universal-hash multipliers/offsets,
// generated once from a fixed seed so signatures are comparable across
// calls.
var hashA, hashB = func() ([minHashK]uint64, [minHashK]uint64) {
	var a, b [minHashK]uint64
	// xorshift64 with a fixed seed for reproducible parameters.
	state := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for i := 0; i < minHashK; i++ {
		a[i] = next() | 1 // odd multiplier
		b[i] = next()
	}
	return a, b
}()

// NewMinHash computes the signature of a string set.
func NewMinHash(values map[string]bool) *MinHash {
	m := newMinHash(len(values))
	for v := range values {
		m.add(v)
	}
	return m
}

// newMinHash starts the signature of a set of size distinct values; the
// caller adds each of them once.
func newMinHash(size int) *MinHash {
	m := &MinHash{mins: make([]uint64, minHashK), Size: size}
	for i := range m.mins {
		m.mins[i] = math.MaxUint64
	}
	return m
}

// add folds one value into the signature.
func (m *MinHash) add(v string) {
	h := fnv.New64a()
	h.Write([]byte(v))
	base := h.Sum64()
	for i := 0; i < minHashK; i++ {
		hv := hashA[i]*base + hashB[i]
		if hv < m.mins[i] {
			m.mins[i] = hv
		}
	}
}

// Jaccard estimates |A∩B| / |A∪B| from two signatures.
func (m *MinHash) Jaccard(other *MinHash) float64 {
	if m.Size == 0 || other.Size == 0 {
		return 0
	}
	agree := 0
	for i := range m.mins {
		if m.mins[i] == other.mins[i] {
			agree++
		}
	}
	return float64(agree) / float64(minHashK)
}

// Containment estimates |A∩B| / |A| (how much of this signature's set
// appears in the other's) using the Jaccard estimate and the set sizes:
// |A∩B| = J·(|A|+|B|)/(1+J).
func (m *MinHash) Containment(other *MinHash) float64 {
	if m.Size == 0 {
		return 0
	}
	j := m.Jaccard(other)
	inter := j * float64(m.Size+other.Size) / (1 + j)
	c := inter / float64(m.Size)
	if c > 1 {
		c = 1
	}
	return c
}
