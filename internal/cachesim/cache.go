// Package cachesim implements the memory-hierarchy substrate of the
// evaluation: set-associative LRU caches, a next-line prefetcher, a
// two-level instruction hierarchy, and the Pin-style shared L1
// instruction cache co-run simulation the paper uses for its "simulated"
// miss-ratio columns (32 KB, 4-way, 64-byte lines, shared by the two
// hyper-threads of a core).
package cachesim

import (
	"fmt"
	"math"
)

// Config describes one cache level.
type Config struct {
	SizeBytes int
	Assoc     int
	LineBytes int
}

// L1IDefault is the paper's simulated instruction cache: 32 KB, 4-way,
// 64-byte lines — "the same as on the real machine".
var L1IDefault = Config{SizeBytes: 32 << 10, Assoc: 4, LineBytes: 64}

// L2Default stands in for the per-core unified L2 of the Xeon E5520
// (256 KB, 8-way).
var L2Default = Config{SizeBytes: 256 << 10, Assoc: 8, LineBytes: 64}

// MaxWays bounds a geometry's total number of ways (sets × assoc, or
// SizeBytes/LineBytes): New allocates every way up front, so a request
// naming a huge cache must be refused before a simulation starts. 1<<20
// ways is a 64 MiB cache at 64-byte lines, far above any instruction
// cache the evaluation models.
const MaxWays = 1 << 20

// Sets returns the number of cache sets.
func (c Config) Sets() int { return c.SizeBytes / (c.Assoc * c.LineBytes) }

// Validate checks that the geometry is consistent and within MaxWays.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Assoc <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("cachesim: non-positive geometry %+v", c)
	}
	// A set's ways are some of the cache's, so an associativity above
	// MaxWays is out of bounds too; checking it first keeps assoc*line
	// from overflowing.
	if c.Assoc > MaxWays || c.LineBytes > math.MaxInt/c.Assoc {
		return fmt.Errorf("cachesim: geometry %+v exceeds %d ways or overflows assoc*line", c, MaxWays)
	}
	if c.SizeBytes%(c.Assoc*c.LineBytes) != 0 {
		return fmt.Errorf("cachesim: size %d not divisible by assoc*line %d", c.SizeBytes, c.Assoc*c.LineBytes)
	}
	if ways := c.SizeBytes / c.LineBytes; ways > MaxWays {
		return fmt.Errorf("cachesim: geometry %+v has %d ways, above the bound %d", c, ways, MaxWays)
	}
	return nil
}

// Stats counts cache events. Per-thread attribution is handled by the
// callers (each thread keeps its own Stats and passes it to Access).
type Stats struct {
	Accesses      int64
	Misses        int64
	PrefetchHits  int64 // demand hits on prefetched lines
	PrefetchFills int64
}

// MissRatio returns Misses/Accesses, 0 when idle.
func (s Stats) MissRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Accesses += other.Accesses
	s.Misses += other.Misses
	s.PrefetchHits += other.PrefetchHits
	s.PrefetchFills += other.PrefetchFills
}

type way struct {
	line     int64
	valid    bool
	prefetch bool
}

// Cache is a set-associative LRU cache over line numbers
// (line = address / LineBytes). Associativity is expected to be small
// (2-16), so each set is a move-to-front array.
type Cache struct {
	cfg  Config
	sets [][]way
	mask int64
}

// New creates an empty cache.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.Sets()
	sets := make([][]way, n)
	backing := make([]way, n*cfg.Assoc)
	for i := range sets {
		sets[i] = backing[i*cfg.Assoc : (i+1)*cfg.Assoc]
	}
	return &Cache{cfg: cfg, sets: sets, mask: int64(n - 1)}
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) set(line int64) []way {
	n := int64(len(c.sets))
	if n&(n-1) == 0 {
		return c.sets[line&c.mask]
	}
	return c.sets[line%n]
}

// Access performs a demand access to a line, updating st. It returns
// true on hit.
func (c *Cache) Access(line int64, st *Stats) bool {
	st.Accesses++
	s := c.set(line)
	for i := range s {
		if s[i].valid && s[i].line == line {
			if s[i].prefetch {
				st.PrefetchHits++
				s[i].prefetch = false
			}
			mtf(s, i)
			return true
		}
	}
	st.Misses++
	fill(s, line, false)
	return false
}

// Prefetch fills a line without counting a demand access; it does not
// disturb LRU order of present lines and inserts at MRU position.
func (c *Cache) Prefetch(line int64, st *Stats) {
	s := c.set(line)
	for i := range s {
		if s[i].valid && s[i].line == line {
			return // already present
		}
	}
	st.PrefetchFills++
	fill(s, line, true)
}

// Contains reports whether a line is present (without touching LRU).
func (c *Cache) Contains(line int64) bool {
	s := c.set(line)
	for i := range s {
		if s[i].valid && s[i].line == line {
			return true
		}
	}
	return false
}

// Flush invalidates the whole cache.
func (c *Cache) Flush() {
	for _, s := range c.sets {
		for i := range s {
			s[i] = way{}
		}
	}
}

// mtf moves s[i] to the front (MRU) of the set.
func mtf(s []way, i int) {
	if i == 0 {
		return
	}
	w := s[i]
	copy(s[1:i+1], s[:i])
	s[0] = w
}

// fill inserts a line at MRU, evicting the LRU way.
func fill(s []way, line int64, pf bool) {
	copy(s[1:], s[:len(s)-1])
	s[0] = way{line: line, valid: true, prefetch: pf}
}
