// Package cachesim is a trace-driven cache-hierarchy simulator standing in
// for the hardware performance counters of the paper's evaluation platform
// (a dual-socket Broadwell Xeon). It models:
//
//   - per-core private L1 and L2 caches and a shared, inclusive-enough L3
//     per socket, all set-associative with LRU replacement;
//   - a directory that classifies every L2 miss the way Fig. 9 does:
//     served by the local L3 with no snoop, by a snoop to a core on the
//     same socket, by a snoop to the remote socket, or from memory; and
//   - MPKI accounting (Fig. 8) against an instruction-count model supplied
//     by the trace engine.
//
// Capacities are parameters: trace.MachineFor scales the L3 with the
// dataset so the hot-footprint-to-LLC ratio matches the paper's regime;
// ROADMAP item 2 plans sweeping the capacity instead.
package cachesim

import "fmt"

// Level identifies where an access was served.
type Level uint8

const (
	// L1Hit: served by the core's L1.
	L1Hit Level = iota
	// L2Hit: missed L1, served by the core's L2.
	L2Hit
	// L3Hit: missed L2, served by the local socket's L3 without snooping.
	L3Hit
	// SnoopLocal: missed L2, served by another core on the same socket.
	SnoopLocal
	// SnoopRemote: missed L2, served by a cache on the other socket.
	SnoopRemote
	// OffChip: served from memory.
	OffChip
)

// String returns a short label for the level.
func (l Level) String() string {
	switch l {
	case L1Hit:
		return "L1"
	case L2Hit:
		return "L2"
	case L3Hit:
		return "L3"
	case SnoopLocal:
		return "snoop-local"
	case SnoopRemote:
		return "snoop-remote"
	case OffChip:
		return "off-chip"
	default:
		return fmt.Sprintf("Level(%d)", uint8(l))
	}
}

// CacheConfig sizes one cache.
type CacheConfig struct {
	SizeBytes int
	Ways      int
}

// Config describes the simulated machine.
type Config struct {
	// Cores is the total core count; must be divisible by Sockets.
	Cores int
	// Sockets is the number of sockets (each with its own shared L3).
	Sockets int
	// LineBytes is the cache line size; 0 means 64.
	LineBytes int
	// L1 and L2 are per-core private caches; L3 is per-socket shared.
	L1, L2, L3 CacheConfig
}

// DefaultConfig returns a scaled-down dual-socket machine: 8 cores on 2
// sockets, 4 KB/8-way L1, 32 KB/8-way L2, and l3PerSocket bytes of 16-way
// L3 per socket. Pass the L3 size chosen for the dataset.
func DefaultConfig(l3PerSocket int) Config {
	return Config{
		Cores:     8,
		Sockets:   2,
		LineBytes: 64,
		L1:        CacheConfig{SizeBytes: 4 << 10, Ways: 8},
		L2:        CacheConfig{SizeBytes: 32 << 10, Ways: 8},
		L3:        CacheConfig{SizeBytes: l3PerSocket, Ways: 16},
	}
}

// validate normalizes and checks a config.
func (c *Config) validate() error {
	if c.LineBytes == 0 {
		c.LineBytes = 64
	}
	if c.Cores <= 0 || c.Sockets <= 0 || c.Cores%c.Sockets != 0 {
		return fmt.Errorf("cachesim: bad core/socket counts %d/%d", c.Cores, c.Sockets)
	}
	for _, cc := range []CacheConfig{c.L1, c.L2, c.L3} {
		if cc.SizeBytes <= 0 || cc.Ways <= 0 {
			return fmt.Errorf("cachesim: cache with non-positive size or ways: %+v", cc)
		}
		lines := cc.SizeBytes / c.LineBytes
		if lines < cc.Ways || lines%cc.Ways != 0 {
			return fmt.Errorf("cachesim: %d lines not divisible into %d ways", lines, cc.Ways)
		}
	}
	return nil
}

// line is one cache entry. version implements zero-walk invalidation: a
// cached copy is stale (treated as absent) when its version is older than
// the directory's current version for that address.
type line struct {
	tag     uint64
	version uint32
	valid   bool
	dirty   bool
}

// cache is a set-associative LRU cache of line tags.
type cache struct {
	sets    [][]line // each set ordered MRU-first
	setMask uint64
	ways    int
}

func newCache(cc CacheConfig, lineBytes int) *cache {
	numLines := cc.SizeBytes / lineBytes
	numSets := numLines / cc.Ways
	// numSets must be a power of two for mask indexing; round down.
	for numSets&(numSets-1) != 0 {
		numSets &= numSets - 1
	}
	if numSets == 0 {
		numSets = 1
	}
	sets := make([][]line, numSets)
	for i := range sets {
		sets[i] = make([]line, 0, cc.Ways)
	}
	return &cache{sets: sets, setMask: uint64(numSets - 1), ways: cc.Ways}
}

// lookup probes for lineAddr at version curVer; on hit the entry is moved
// to MRU and dirtied if write. Stale-version entries are treated as
// invalid and dropped.
func (c *cache) lookup(lineAddr uint64, curVer uint32, write bool) bool {
	return c.lookupUpgrade(lineAddr, curVer, curVer, write)
}

// lookupUpgrade probes for lineAddr at version curVer and, on hit, bumps
// the entry to newVer — the MESI "upgrade" a writer performs on its own
// shared copy while invalidating everyone else's.
func (c *cache) lookupUpgrade(lineAddr uint64, curVer, newVer uint32, write bool) bool {
	set := c.sets[lineAddr&c.setMask]
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			if set[i].version != curVer {
				// Invalidated by a remote write; drop the stale copy.
				set[i].valid = false
				return false
			}
			entry := set[i]
			entry.version = newVer
			if write {
				entry.dirty = true
			}
			copy(set[1:i+1], set[0:i])
			set[0] = entry
			return true
		}
	}
	return false
}

// insert fills lineAddr at version curVer as MRU, evicting LRU if needed.
// Returns the evicted line and whether an eviction happened.
func (c *cache) insert(lineAddr uint64, curVer uint32, write bool) (line, bool) {
	idx := lineAddr & c.setMask
	set := c.sets[idx]
	entry := line{tag: lineAddr, version: curVer, valid: true, dirty: write}
	// Reuse an invalid slot if present.
	for i := range set {
		if !set[i].valid {
			copy(set[1:i+1], set[0:i])
			set[0] = entry
			return line{}, false
		}
	}
	if len(set) < c.ways {
		set = append(set, line{})
		copy(set[1:], set[0:len(set)-1])
		set[0] = entry
		c.sets[idx] = set
		return line{}, false
	}
	evicted := set[len(set)-1]
	copy(set[1:], set[0:len(set)-1])
	set[0] = entry
	return evicted, evicted.valid
}

// contains probes without updating recency (used for directory checks).
func (c *cache) contains(lineAddr uint64, curVer uint32) bool {
	set := c.sets[lineAddr&c.setMask]
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr && set[i].version == curVer {
			return true
		}
	}
	return false
}
