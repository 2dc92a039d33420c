//go:build !race

package parallel

// raceEnabled mirrors testenv.RaceEnabled, which this package's internal
// tests cannot import (testenv imports parallel).
const raceEnabled = false
