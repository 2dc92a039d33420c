package coreset

import (
	"testing"

	"github.com/arda-ml/arda/internal/testenv"
)

// TestNoFusedMultiplyAdd: an arm64 build of the package must compute the
// amd64 bits, so none of its own files may fuse a multiply into an add (see
// testenv.NoFusedMultiplyAdd).
func TestNoFusedMultiplyAdd(t *testing.T) { testenv.NoFusedMultiplyAdd(t) }
