// Cross-process sharing of decode products: every session debugging the
// same binary re-decodes and re-fuses the same text bytes, so a
// TextCache publishes one process's predecoded instructions and
// superblocks under an (arch, content-hash) key and hands them to later
// processes that load identical text. Sharing is safe because decode
// products are functions of the bytes alone: micro-op operands and Exec
// closures capture only decode-time constants (immediates, branch
// targets, pre-computed successors), text always loads at TextBase so
// even absolute pcs baked into them agree across processes, and the
// invalidation contract guarantees a published cache describes exactly
// the bytes it was hashed over — a session that has planted a
// breakpoint has different bytes and therefore a different key, so it
// can neither poison the pristine entry nor adopt from it.
//
// Adopted state is copy-on-write: the decoded slice is installed
// read-only (Segment.ro) and privatized — copied — before the first
// mutation, so one session's breakpoint plant never touches another
// session's view. Superblock structs carry per-session mutable
// predicted-successor links, so adoption clones per-block headers (the
// ops arrays themselves are immutable after formation and stay shared);
// the per-segment generation counter starts fresh per process, keeping
// plant invalidation session-local.
package machine

import (
	"sync"
	"sync/atomic"

	"ldb/internal/arch"
)

// SharedText is one published text segment's decode products. Immutable
// once inserted into a TextCache.
type SharedText struct {
	decoded []arch.DecodedInsn
	// blocks are superblock templates: ops/nbytes only, with the
	// per-session predicted-successor links stripped. Adopt clones the
	// headers and shares the ops arrays.
	blocks []*sblock
}

// TextCache shares decode products across processes. The zero value is
// not ready; use NewTextCache. All methods are safe for concurrent use.
type TextCache struct {
	mu sync.Mutex //ldb:lock textcache.mu 30
	m  map[arch.TextKey]*SharedText

	hits   atomic.Int64
	misses atomic.Int64
}

// NewTextCache returns an empty cache.
func NewTextCache() *TextCache {
	return &TextCache{m: make(map[arch.TextKey]*SharedText)}
}

// shareText finds p's text segment, or nil when p has none.
func shareText(p *Process) *Segment {
	for _, s := range p.Segs {
		if s.Name == "text" {
			return s
		}
	}
	return nil
}

// Adopt installs published decode products for p's text segment when
// its exact current content has been published, and reports whether it
// did (a warm attach: the process executes with zero decode work for
// every published entry). Call it on a freshly created process, before
// it executes or plants anything.
func (c *TextCache) Adopt(p *Process) bool {
	s := shareText(p)
	if s == nil || s.decoded != nil {
		return false
	}
	key := arch.SumText(p.A.Name(), s.Data)
	c.mu.Lock()
	st := c.m[key]
	c.mu.Unlock()
	if st == nil {
		c.misses.Add(1)
		return false
	}
	s.decoded = st.decoded
	s.ro = true
	s.sblocks = make([]*sblock, len(st.blocks))
	for i, t := range st.blocks {
		if t != nil {
			s.sblocks[i] = &sblock{ops: t.ops, nbytes: t.nbytes}
			s.maxBlock = max(s.maxBlock, t.nbytes)
		}
	}
	s.gen = 0
	c.hits.Add(1)
	return true
}

// Publish records p's text-segment decode products under the hash of
// the segment's *current* bytes, so whatever invalidation has kept
// consistent with those bytes is exactly what later identical processes
// adopt. The first publisher of a key wins; the entry is never replaced
// (immutability is the whole argument). Publishing marks the segment's
// decoded slice read-only, so the owner privatizes before any further
// mutation of its own. Reports whether a new entry was published.
func (c *TextCache) Publish(p *Process) bool {
	s := shareText(p)
	if s == nil || s.decoded == nil {
		return false
	}
	key := arch.SumText(p.A.Name(), s.Data)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[key]; ok {
		return false
	}
	st := &SharedText{decoded: s.decoded, blocks: make([]*sblock, len(s.sblocks))}
	for i, b := range s.sblocks {
		if b != nil {
			st.blocks[i] = &sblock{ops: b.ops, nbytes: b.nbytes}
		}
	}
	c.m[key] = st
	s.ro = true
	return true
}

// Stats reports warm attaches (hits) and cold ones (misses).
func (c *TextCache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}
