package dataframe

import (
	"hash/fnv"
	"math"
)

// Digest returns a 64-bit FNV-1a fingerprint over the table's full contents:
// name, column order, names, kinds, and every cell's raw bit pattern. Two
// tables with equal digests are value-identical; the resume path uses this to
// refuse checkpoints taken against different inputs.
func (t *Table) Digest() uint64 {
	h := fnv.New64a()
	var scratch [8]byte
	writeU64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			scratch[i] = byte(v >> (8 * i))
		}
		h.Write(scratch[:])
	}
	h.Write([]byte(t.name))
	writeU64(uint64(len(t.cols)))
	for _, c := range t.cols {
		h.Write([]byte{0x1f})
		h.Write([]byte(c.Name()))
		writeU64(uint64(c.Kind()))
		switch col := c.(type) {
		case *NumericColumn:
			writeU64(uint64(len(col.Values)))
			for _, v := range col.Values {
				writeU64(math.Float64bits(v))
			}
		case *CategoricalColumn:
			writeU64(uint64(len(col.Codes)))
			for _, code := range col.Codes {
				writeU64(uint64(int64(code)))
			}
			writeU64(uint64(len(col.Dict)))
			for _, s := range col.Dict {
				h.Write([]byte(s))
				h.Write([]byte{0x1f})
			}
		case *TimeColumn:
			writeU64(uint64(len(col.Unix)))
			for _, v := range col.Unix {
				writeU64(uint64(v))
			}
		}
	}
	return h.Sum64()
}
