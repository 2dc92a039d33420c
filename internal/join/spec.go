// Package join implements ARDA's augmentation joins (§4 of the paper). Only
// LEFT joins are supported — the join must preserve every base-table row and
// add no rows — so one-to-many and many-to-many matches are reduced to
// *-to-one by aggregating the foreign rows that share a key. Hard keys
// match exactly; soft keys (time, location, age, …) match by proximity via
// nearest-neighbour or two-way nearest-neighbour interpolation, optionally
// after resampling a finer-grained time key to the base table's granularity.
// NULLs produced by unmatched rows are imputed (median for numeric, uniform
// random draw for categorical).
package join

import (
	"fmt"
	"math"

	"github.com/arda-ml/arda/internal/dataframe"
)

// KeyKind distinguishes exact-match keys from proximity-match keys.
type KeyKind int

const (
	// Hard keys join on exact value equality.
	Hard KeyKind = iota
	// Soft keys join on numeric/time proximity.
	Soft
)

// String returns the lowercase kind name.
func (k KeyKind) String() string {
	if k == Soft {
		return "soft"
	}
	return "hard"
}

// SoftMethod selects how a soft key is matched.
type SoftMethod int

const (
	// TwoWayNearest joins with the λ-interpolation of the closest foreign
	// rows below and above the base key value. It is the default (and in the
	// paper's Figure 5 usually the best) soft-join method.
	TwoWayNearest SoftMethod = iota
	// NearestNeighbor joins each base row with the single closest foreign
	// row (by soft-key distance).
	NearestNeighbor
	// HardExact forces exact matching even for a soft-typed key (used by the
	// soft-join ablation in the paper's Figure 5).
	HardExact
)

// String returns the lowercase method name.
func (m SoftMethod) String() string {
	switch m {
	case NearestNeighbor:
		return "nearest"
	case TwoWayNearest:
		return "2-way nearest"
	case HardExact:
		return "hard"
	default:
		return fmt.Sprintf("SoftMethod(%d)", int(m))
	}
}

// KeyPair maps a base-table column onto a foreign-table column.
type KeyPair struct {
	BaseColumn    string
	ForeignColumn string
	Kind          KeyKind
}

// Spec describes one candidate join: which key columns align, how soft keys
// are matched, and how the foreign table is preprocessed. A composite key
// may mix hard and soft pairs, but at most one pair may be soft.
type Spec struct {
	// Keys is the (possibly composite) join key mapping.
	Keys []KeyPair
	// Method selects the soft-key matching strategy; ignored when every key
	// is hard.
	Method SoftMethod
	// TimeResample aggregates a finer-grained foreign time key up to the
	// base table's granularity before joining.
	TimeResample bool
	// Prefix renames foreign columns to Prefix+name in the output to avoid
	// collisions; when empty, "<table>." is used.
	Prefix string
}

// Validate checks structural constraints of the spec against both tables.
func (s *Spec) Validate(base, foreign *dataframe.Table) error {
	if len(s.Keys) == 0 {
		return fmt.Errorf("join: spec for %q has no keys", foreign.Name())
	}
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
			if bc.Kind() == dataframe.Categorical || fc.Kind() == dataframe.Categorical {
				return fmt.Errorf("join: soft key %q/%q must be numeric or time", kp.BaseColumn, kp.ForeignColumn)
			}
		}
	}
	if soft > 1 {
		return fmt.Errorf("join: spec for %q has %d soft keys; at most one is supported", foreign.Name(), soft)
	}
	for _, kp := range s.Keys {
		if err := checkKeyFinite(base, kp.BaseColumn); err != nil {
			return err
		}
		if err := checkKeyFinite(foreign, kp.ForeignColumn); err != nil {
			return err
		}
	}
	return nil
}

// checkKeyFinite rejects ±Inf in numeric key columns: Inf survives
// ParseFloat, compares equal to itself, and would silently hash into join
// keys and sort to the ends of soft-key scans, so it is almost always a
// data-corruption artifact rather than a legitimate key. NaN needs no guard
// here — numeric columns already treat NaN as missing, and rows with missing
// key components are dropped from the join.
func checkKeyFinite(t *dataframe.Table, name string) error {
	col, ok := t.Column(name).(*dataframe.NumericColumn)
	if !ok {
		return nil
	}
	for i, v := range col.Values {
		if math.IsInf(v, 0) {
			return &KeyValueError{Table: t.Name(), Column: name, Row: i, Value: v}
		}
	}
	return nil
}

// KeyValueError reports a join-key cell whose value cannot participate in
// key matching (currently: ±Inf in a numeric key column).
type KeyValueError struct {
	Table, Column string
	Row           int
	Value         float64
}

// Error implements the error interface.
func (e *KeyValueError) Error() string {
	return fmt.Sprintf("join: table %q key column %q has non-finite value %v at row %d", e.Table, e.Column, e.Value, e.Row)
}

// softKey returns the soft key pair and whether one exists.
func (s *Spec) softKey() (KeyPair, bool) {
	for _, kp := range s.Keys {
		if kp.Kind == Soft {
			return kp, true
		}
	}
	return KeyPair{}, false
}

// exact reports whether every key pair matches by equality with nothing to
// prepare: no soft key, or a soft key forced to HardExact without time
// resampling. Such a join reads the foreign table in place.
func (s *Spec) exact() bool {
	_, soft := s.softKey()
	return !soft || (s.Method == HardExact && !s.TimeResample)
}

// hardKeys returns the hard key pairs.
func (s *Spec) hardKeys() []KeyPair {
	out := make([]KeyPair, 0, len(s.Keys))
	for _, kp := range s.Keys {
		if kp.Kind == Hard {
			out = append(out, kp)
		}
	}
	return out
}
