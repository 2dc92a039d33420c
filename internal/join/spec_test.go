package join

import (
	"math"
	"strings"
	"testing"
)

// TestMethodAndKindNames: the names trace spans and errors print for a key
// kind and a soft-join method. A method value past HardExact has no name.
func TestMethodAndKindNames(t *testing.T) {
	for _, c := range []struct {
		got, want string
	}{
		{Hard.String(), "hard"},
		{Soft.String(), "soft"},
		{TwoWayNearest.String(), "2-way nearest"},
		{NearestNeighbor.String(), "nearest"},
		{HardExact.String(), "hard"},
		{(HardExact + 1).String(), "SoftMethod(3)"},
		{SoftMethod(-1).String(), "SoftMethod(-1)"},
	} {
		if c.got != c.want {
			t.Errorf("String() = %q, want %q", c.got, c.want)
		}
	}
}

// TestKeyValueErrorNamesCell: the error a non-finite key reports names the
// table, the column, the row and the value.
func TestKeyValueErrorNamesCell(t *testing.T) {
	msg := (&KeyValueError{Table: "f", Column: "k", Row: 7, Value: math.Inf(-1)}).Error()
	for _, part := range []string{`"f"`, `"k"`, "row 7", "-Inf"} {
		if !strings.Contains(msg, part) {
			t.Errorf("%q does not contain %q", msg, part)
		}
	}
}
