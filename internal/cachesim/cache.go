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

// emptyWay marks an invalid way in the tag array. Lines are addresses
// divided by the line size, offset by PeerLineOffset multiples, so no
// access names it.
const emptyWay int64 = math.MinInt64

// Cache is a set-associative LRU cache over line numbers
// (line = address / LineBytes). Associativity is expected to be small
// (2-16), so each set is a move-to-front run of one flat tag array:
// set s holds tags[s*assoc : (s+1)*assoc], most recently used first,
// with emptyWay in the ways not yet filled.
//
// Prefetch state lives off the demand path: pf is allocated by the
// first Prefetch and then flags each way, moving with its tag; a cache
// that is never prefetched into (every Pin-style replay) leaves it nil
// and its accesses touch the tags alone.
type Cache struct {
	cfg   Config
	tags  []int64
	pf    []bool
	assoc int
	// mask selects a line's set when the set count is a power of two;
	// otherwise it is -1 and the set is line % sets.
	mask int64
	sets int64
}

// New creates an empty cache.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := int64(cfg.Sets())
	c := &Cache{cfg: cfg, tags: make([]int64, n*int64(cfg.Assoc)), assoc: cfg.Assoc, mask: -1, sets: n}
	if n&(n-1) == 0 {
		c.mask = n - 1
	}
	c.Flush()
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// base returns the index of line's set in the tag array.
func (c *Cache) base(line int64) int {
	if c.mask >= 0 {
		return int(line&c.mask) * c.assoc
	}
	return int(line%c.sets) * c.assoc
}

// Access performs a demand access to a line, updating st. It returns
// true on hit.
func (c *Cache) Access(line int64, st *Stats) bool {
	st.Accesses++
	if c.pf != nil {
		return c.accessPrefetched(line, st)
	}
	b := c.base(line)
	if s := c.tags[b : b+c.assoc : b+c.assoc]; s[0] == line || promote(s, line) {
		return true
	}
	st.Misses++
	return false
}

// promote moves line to the front of set s, shifting the ways before it
// back one; a line not in s enters at the front and the LRU way drops
// out. It reports whether line was present.
func promote(s []int64, line int64) bool {
	i := 1
	for i < len(s) && s[i] != line {
		i++
	}
	hit := i < len(s)
	if !hit {
		i = len(s) - 1
	}
	for ; i > 0; i-- {
		s[i] = s[i-1]
	}
	s[0] = line
	return hit
}

// fourWay reports whether every line of c can take miss4: 4 ways and
// a power-of-two set count, L1IDefault's geometry.
func (c *Cache) fourWay() bool { return c.assoc == 4 && c.mask >= 0 }

// miss4 is the range kernels' LRU step on a 4-way set s, most recently
// used first: it checks the MRU way and otherwise shifts the set back
// one way in the same pass that scans it for line, leaving s as promote
// would. It reports whether line missed. It stays within the
// compiler's inlining budget, so both kernels inline it.
func miss4(s *[4]int64, line int64) bool {
	t := s[0]
	if t == line {
		return false
	}
	s[0] = line
	if s[1], t = t, s[1]; t == line {
		return false
	}
	if s[2], t = t, s[2]; t == line {
		return false
	}
	s[3], t = t, s[3]
	return t != line
}

// accessPrefetched is Access on a cache holding prefetch state: each
// way's flag moves with its tag, and a demand hit on a prefetched line
// counts once in PrefetchHits.
func (c *Cache) accessPrefetched(line int64, st *Stats) bool {
	b := c.base(line)
	s, f := c.tags[b:b+c.assoc], c.pf[b:b+c.assoc]
	for i := range s {
		if s[i] == line {
			if f[i] {
				st.PrefetchHits++
			}
			copy(s[1:i+1], s[:i])
			copy(f[1:i+1], f[:i])
			s[0], f[0] = line, false
			return true
		}
	}
	st.Misses++
	fill(s, f, line, false)
	return false
}

// Prefetch fills a line without counting a demand access; it does not
// disturb LRU order of present lines and inserts at MRU position.
func (c *Cache) Prefetch(line int64, st *Stats) {
	if c.Contains(line) {
		return
	}
	if c.pf == nil {
		// Every line already present came in on demand.
		c.pf = make([]bool, len(c.tags))
	}
	st.PrefetchFills++
	b := c.base(line)
	fill(c.tags[b:b+c.assoc], c.pf[b:b+c.assoc], line, true)
}

// Contains reports whether a line is present (without touching LRU).
func (c *Cache) Contains(line int64) bool {
	b := c.base(line)
	for _, t := range c.tags[b : b+c.assoc] {
		if t == line {
			return true
		}
	}
	return false
}

// Flush invalidates the whole cache.
func (c *Cache) Flush() {
	for i := range c.tags {
		c.tags[i] = emptyWay
	}
	clear(c.pf)
}

// fill inserts a line at MRU of set s (with prefetch flags f), evicting
// the LRU way.
func fill(s []int64, f []bool, line int64, pf bool) {
	copy(s[1:], s[:len(s)-1])
	copy(f[1:], f[:len(f)-1])
	s[0], f[0] = line, pf
}
