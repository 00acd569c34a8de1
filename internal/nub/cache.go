package nub

import (
	"encoding/binary"
	"slices"
	"sort"

	"ldb/internal/amem"
)

// memCache is the client-side read-through cache over the wire's fetch
// requests. It holds raw target bytes keyed by address range, one range
// list per space (only code and data travel on the wire). Stores write
// through: the cached copy is patched or evicted before the store's
// reply even returns, so a read after a write always sees the write.
// A continue invalidates everything — the target ran, so no cached
// state may survive the resume.
//
// Values are byte images in the target's own order; FetchInt requests
// are served by decoding with the target's byte order, exactly what the
// nub's own Load does on the other end of the wire.
//
// Each space's ranges are kept sorted by address, disjoint and
// non-adjacent (a range ends strictly before the next begins), so every
// operation finds the ranges it touches by binary search and splices
// them in place. bytes is a running total of the cached payload.
// A source-level step plants and removes hundreds of temporaries, each
// a fetch, a patch and an invalidation here, so an operation costs
// O(log n) plus the ranges it merges or evicts, never a walk of the
// whole cache.
type memCache struct {
	spaces map[amem.Space][]cacheRange
	bytes  int // total cached payload, to bound growth
}

type cacheRange struct {
	addr uint32
	data []byte
}

// end is one past the last cached address, in uint64: a range abutting
// 0xFFFFFFFF ends at 1<<32, which uint32 arithmetic would wrap to 0
// and turn every comparison against it inside out.
func (r cacheRange) end() uint64 { return uint64(r.addr) + uint64(len(r.data)) }

// maxCacheBytes bounds the cache; past it the whole cache is dropped
// rather than managed — a debugger's working set never gets near it.
const maxCacheBytes = 4 << 20

func newMemCache() *memCache {
	return &memCache{spaces: make(map[amem.Space][]cacheRange)}
}

// search returns the index of the first range ending after addr: the
// only range that can hold addr, or where a range holding it belongs.
func search(ranges []cacheRange, addr uint64) int {
	return sort.Search(len(ranges), func(k int) bool { return ranges[k].end() > addr })
}

// span returns the half-open index interval [i, j) of the ranges that
// overlap [lo, hi).
func span(ranges []cacheRange, lo, hi uint64) (i, j int) {
	i = search(ranges, lo)
	j = i + sort.Search(len(ranges)-i, func(k int) bool { return uint64(ranges[i+k].addr) >= hi })
	return i, j
}

// lookup returns the cached bytes for [addr, addr+n) if some single
// range holds them all.
func (c *memCache) lookup(space amem.Space, addr uint32, n int) ([]byte, bool) {
	ranges := c.spaces[space]
	i := search(ranges, uint64(addr))
	if i == len(ranges) || ranges[i].addr > addr || uint64(addr)+uint64(n) > ranges[i].end() {
		return nil, false
	}
	off := addr - ranges[i].addr
	return ranges[i].data[off : off+uint32(n)], true
}

// insert records freshly fetched (or freshly stored) bytes, coalescing
// with overlapping and adjacent ranges so coverage grows into contiguous
// runs instead of fragmenting.
func (c *memCache) insert(space amem.Space, addr uint32, data []byte) {
	if len(data) == 0 {
		return
	}
	if c.bytes+len(data) > maxCacheBytes {
		c.reset()
	}
	ranges := c.spaces[space]
	end := uint64(addr) + uint64(len(data))
	// Widened by a byte each way, the span takes in the ranges that end
	// at addr or start at end as well, which are folded in too.
	i, j := span(ranges, max(uint64(addr), 1)-1, end+1)
	if i == j {
		c.spaces[space] = slices.Insert(ranges, i, cacheRange{addr: addr, data: append([]byte(nil), data...)})
		c.bytes += len(data)
		return
	}
	// Fold ranges[i:j] and the new bytes into one run, with the new
	// bytes winning where they overlap (they are newer).
	lo := min(ranges[i].addr, addr)
	buf := make([]byte, max(ranges[j-1].end(), end)-uint64(lo))
	for _, r := range ranges[i:j] {
		copy(buf[r.addr-lo:], r.data)
		c.bytes -= len(r.data)
	}
	copy(buf[addr-lo:], data)
	c.bytes += len(buf)
	c.spaces[space] = slices.Replace(ranges, i, j, cacheRange{addr: lo, data: buf})
}

// patch applies a store to the cached copy: a range fully covering the
// write is updated in place; ranges partially overlapping it are
// evicted (correct and simpler than splitting).
func (c *memCache) patch(space amem.Space, addr uint32, data []byte) {
	if len(data) == 0 {
		return
	}
	ranges := c.spaces[space]
	end := uint64(addr) + uint64(len(data))
	i, j := span(ranges, uint64(addr), end)
	if j-i == 1 && ranges[i].addr <= addr && ranges[i].end() >= end {
		copy(ranges[i].data[addr-ranges[i].addr:], data)
		return
	}
	c.evict(space, ranges, i, j)
}

// invalidate evicts every range overlapping [addr, addr+n).
func (c *memCache) invalidate(space amem.Space, addr uint32, n int) {
	ranges := c.spaces[space]
	i, j := span(ranges, uint64(addr), uint64(addr)+uint64(n))
	c.evict(space, ranges, i, j)
}

// evict drops ranges[i:j] from space.
func (c *memCache) evict(space amem.Space, ranges []cacheRange, i, j int) {
	if i == j {
		return
	}
	for _, r := range ranges[i:j] {
		c.bytes -= len(r.data)
	}
	c.spaces[space] = slices.Delete(ranges, i, j)
}

// reset drops everything — called when the target resumes.
func (c *memCache) reset() {
	c.spaces = make(map[amem.Space][]cacheRange)
	c.bytes = 0
}

// serveInt decodes a cached integer in the target's byte order. Sizes
// past the wire's 4-byte word are never served: the nub rejects them,
// and the cache must not succeed where the wire would error.
func (c *memCache) serveInt(order binary.ByteOrder, space amem.Space, addr uint32, size int) (uint64, bool) {
	if order == nil || size <= 0 || size > 4 {
		return 0, false
	}
	b, ok := c.lookup(space, addr, size)
	if !ok {
		return 0, false
	}
	return amem.ReadInt(order, b), true
}
