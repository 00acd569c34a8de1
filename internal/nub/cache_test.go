package nub

import (
	"math/rand"
	"testing"

	"ldb/internal/amem"
)

// cacheModel is the reference the cache is checked against: for every
// address of two windows — one low, one ending at the top of the
// address space — the last byte inserted or stored there, and whether
// it is known at all (an invalidation forgets it, the way an unplant
// restores bytes the client never sees).
type cacheModel struct {
	val, known []byte
}

const (
	modelLow    = 0x10000
	modelLowLen = 6 << 20 // past maxCacheBytes, so the cache can overflow
	modelTopLen = 4 << 10
	modelTop    = 1<<32 - modelTopLen
)

// index maps an address of either window into the model's arrays.
func (m *cacheModel) index(addr uint64) int {
	if addr >= modelTop {
		return modelLowLen + int(addr-modelTop)
	}
	return int(addr - modelLow)
}

func (m *cacheModel) write(addr uint32, data []byte) {
	for k, b := range data {
		i := m.index(uint64(addr) + uint64(k))
		m.val[i], m.known[i] = b, 1
	}
}

func (m *cacheModel) forget(addr uint32, n int) {
	for k := range n {
		m.known[m.index(uint64(addr)+uint64(k))] = 0
	}
}

// checkCache verifies the range-list invariants: every space's ranges
// are non-empty, sorted, disjoint and non-adjacent, and bytes is the
// sum of their lengths.
func checkCache(t *testing.T, c *memCache, op string) {
	t.Helper()
	total := 0
	for _, space := range []amem.Space{amem.Code, amem.Data} {
		ranges := c.spaces[space]
		for k, r := range ranges {
			if len(r.data) == 0 {
				t.Fatalf("after %s: %c range %d at %#x is empty", op, space, k, r.addr)
			}
			if k > 0 && ranges[k-1].end() >= uint64(r.addr) {
				t.Fatalf("after %s: %c ranges %d [%#x,%#x) and %d [%#x,%#x) overlap or abut",
					op, space, k-1, ranges[k-1].addr, ranges[k-1].end(), k, r.addr, r.end())
			}
			total += len(r.data)
		}
	}
	if len(c.spaces) > 2 {
		t.Fatalf("after %s: %d spaces cached, want at most code and data", op, len(c.spaces))
	}
	if c.bytes != total {
		t.Fatalf("after %s: bytes = %d, ranges hold %d", op, c.bytes, total)
	}
}

// TestCacheMatchesModel drives random inserts, patches, invalidations
// and lookups against the byte model: overlapping and abutting ranges
// in both spaces, ranges ending at 0xFFFFFFFF, and a run that overflows
// maxCacheBytes. After every operation the range invariants must hold,
// and every lookup hit must return the model's bytes.
func TestCacheMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := newMemCache()
	models := map[amem.Space]*cacheModel{}
	for _, space := range []amem.Space{amem.Code, amem.Data} {
		n := modelLowLen + modelTopLen
		models[space] = &cacheModel{val: make([]byte, n), known: make([]byte, n)}
	}
	// pick returns a random [addr, addr+n) inside one window, crowded
	// into 512 bytes so that ranges keep meeting.
	pick := func(maxLen int) (uint32, int) {
		n := 1 + rng.Intn(maxLen)
		if rng.Intn(3) == 0 {
			return uint32(1<<32 - n - rng.Intn(512-n)), n // up to the very top
		}
		return uint32(modelLow + rng.Intn(512)), n
	}
	bytesOf := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	lookup := func(space amem.Space, addr uint32, n int, mustHit bool) {
		t.Helper()
		got, ok := c.lookup(space, addr, n)
		if !ok {
			if mustHit {
				t.Fatalf("lookup %c [%#x,+%d) right after caching it missed", space, addr, n)
			}
			return
		}
		m := models[space]
		for k, b := range got {
			i := m.index(uint64(addr) + uint64(k))
			if m.known[i] == 0 || m.val[i] != b {
				t.Fatalf("lookup %c [%#x,+%d): byte %d is %#x, model has %#x (known %v)",
					space, addr, n, k, b, m.val[i], m.known[i] == 1)
			}
		}
	}
	overflowed := false
	for step := 0; step < 20000; step++ {
		space := []amem.Space{amem.Code, amem.Data}[rng.Intn(2)]
		m := models[space]
		var op string
		switch r := rng.Intn(10); {
		case step >= 12000 && step < 12200:
			// Fill the low window with 64 KB runs until the cache has
			// overflowed and dropped everything at least once.
			op = "large insert"
			addr := uint32(modelLow + rng.Intn(modelLowLen-64<<10))
			data := bytesOf(64 << 10)
			before := c.bytes
			c.insert(space, addr, data)
			m.write(addr, data)
			if c.bytes < before {
				overflowed = true
			}
			lookup(space, addr, len(data), true)
		case r < 3:
			op = "insert"
			addr, n := pick(40)
			data := bytesOf(n)
			c.insert(space, addr, data)
			m.write(addr, data)
			lookup(space, addr, n, true)
		case r < 5:
			op = "patch"
			addr, n := pick(12)
			data := bytesOf(n)
			c.patch(space, addr, data)
			m.write(addr, data)
		case r < 6:
			op = "invalidate"
			addr, n := pick(24)
			c.invalidate(space, addr, n)
			m.forget(addr, n)
		default:
			op = "lookup"
			addr, n := pick(16)
			lookup(space, addr, n, false)
		}
		checkCache(t, c, op)
	}
	if !overflowed {
		t.Fatal("the run never overflowed maxCacheBytes")
	}
}

// TestCacheSpliceAllocs pins the cost of the operations a step repeats
// hundreds of times: with 1,000 ranges cached, a store that one range
// fully covers is patched in place, and a disjoint insert allocates
// only its own copy of the bytes (and, now and then, a grown range
// list).
func TestCacheSpliceAllocs(t *testing.T) {
	c := newMemCache()
	const base = 0x400000
	for i := range 1000 {
		c.insert(amem.Code, uint32(base+16*i), []byte{1, 2, 3, 4})
	}
	store := []byte{9, 9}
	if a := testing.AllocsPerRun(100, func() { c.patch(amem.Code, base+16*500+1, store) }); a != 0 {
		t.Errorf("covered patch: %v allocations, want 0", a)
	}
	next := 0
	fetched := []byte{5, 6, 7, 8}
	if a := testing.AllocsPerRun(100, func() {
		c.insert(amem.Code, uint32(base+16*next+8), fetched)
		next++
	}); a > 2 {
		t.Errorf("disjoint insert: %v allocations, want at most 2", a)
	}
	checkCache(t, c, "inserts")
	if got := len(c.spaces[amem.Code]); got != 1000+next {
		t.Fatalf("%d ranges cached, want %d", got, 1000+next)
	}
}
