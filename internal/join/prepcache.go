package join

import (
	"errors"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/arda-ml/arda/internal/dataframe"
)

// PrepCache memoizes Execute's foreign-table preparation for soft, geo and
// time-resample joins (key aggregation or time resampling); a hard-key join
// reads its foreign table in place and prepares nothing. The ARDA pipeline
// joins the same candidate table up to three times — when screening it
// against the coreset, when joining its batch, and again when materializing
// kept features over the full base table — and the preparation depends only
// on the foreign table, the key set, and the resample granularity, never on
// the base rows. Entries are keyed by the
// foreign table's identity (pointer), so the cache is only valid while
// candidate tables are not mutated; the pipeline guarantees that by joining
// into fresh/cloned work tables. Create one cache per Augment run and drop it
// with the run. Safe for concurrent use: callers racing on one key wait for
// the single preparation instead of each computing it.
type PrepCache struct {
	mu     sync.Mutex
	m      map[prepKey]*prepEntry
	hits   atomic.Int64
	misses atomic.Int64
}

// prepEntry is one preparation, computed at most once. err starts as
// errPrepPanicked so an entry whose preparation panicked (the once is spent)
// fails later callers instead of handing them a nil table.
type prepEntry struct {
	once     sync.Once
	prepared *dataframe.Table
	err      error
}

var errPrepPanicked = errors.New("join: preparing the foreign table panicked")

// CacheStats is a hit/miss snapshot of a per-run cache.
type CacheStats struct {
	// Hits counts lookups served from the cache.
	Hits int64
	// Misses counts lookups that had to compute (and then store) an entry.
	Misses int64
}

// prepKey identifies one preparation of one foreign table.
type prepKey struct {
	table *dataframe.Table
	spec  string // mode + key columns + granularity
}

// NewPrepCache returns an empty preparation cache.
func NewPrepCache() *PrepCache {
	return &PrepCache{m: make(map[prepKey]*prepEntry)}
}

// prepSpec renders the preparation parameters as a cache-key string. Column
// names are length-prefixed so arbitrary names cannot alias two key sets.
func prepSpec(mode string, keyCols []string, gran int64) string {
	var b strings.Builder
	b.WriteString(mode)
	b.WriteByte(0)
	b.WriteString(strconv.FormatInt(gran, 10))
	for _, k := range keyCols {
		b.WriteByte(0)
		b.WriteString(strconv.Itoa(len(k)))
		b.WriteByte(':')
		b.WriteString(k)
	}
	return b.String()
}

// prepare returns the cached preparation of (t, spec), calling fn to compute
// it on the first request for the key. A nil cache always computes.
func (c *PrepCache) prepare(t *dataframe.Table, spec string, fn func() (*dataframe.Table, error)) (*dataframe.Table, error) {
	if c == nil {
		return fn()
	}
	key := prepKey{t, spec}
	c.mu.Lock()
	e := c.m[key]
	if e == nil {
		e = &prepEntry{err: errPrepPanicked}
		c.m[key] = e
		c.misses.Add(1)
	} else {
		c.hits.Add(1)
	}
	c.mu.Unlock()
	e.once.Do(func() { e.prepared, e.err = fn() })
	return e.prepared, e.err
}

// Stats returns the cache's hit/miss counts so far. Every miss creates
// exactly one entry, so Misses == Len() always — the pipeline's prepare-once
// contract — and Hits counts the preparations a run did not repeat.
func (c *PrepCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load()}
}

// Len returns the number of cached preparations.
func (c *PrepCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
