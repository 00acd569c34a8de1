package amem

import "fmt"

// Copy-on-write snapshots. A Shadow tracks which pages of a byte-slice
// backed memory have been written since the last snapshot; Fork then
// copies only the dirty pages and shares the clean ones structurally
// with the previous snapshot, so a checkpoint costs O(dirty pages), not
// O(memory). Snapshots (PageMaps) are immutable once taken: restoring
// one copies pages back out, it never hands the live memory an aliased
// slice it could scribble on.

const (
	// SnapShift is log2 of the snapshot page size. Hot store paths may
	// mark dirty pages inline as Dirty[offset>>SnapShift] = true.
	SnapShift = 12
	// SnapPage is the snapshot page granularity in bytes.
	SnapPage = 1 << SnapShift
)

// PageMap is an immutable page-granular snapshot of a byte slice. A nil
// page entry denotes an all-zero page (stacks are mostly zeros), and
// clean pages are shared with the snapshot they were forked from.
type PageMap struct {
	n     int
	pages [][]byte
}

// Len returns the length in bytes of the snapshotted memory.
func (pm *PageMap) Len() int { return pm.n }

// NumPages returns the number of pages in the map.
func (pm *PageMap) NumPages() int { return len(pm.pages) }

// Page returns page i, or nil for an all-zero page. The returned slice
// is part of the immutable snapshot and must not be modified.
func (pm *PageMap) Page(i int) []byte { return pm.pages[i] }

// PageMapFromPages rebuilds a PageMap from deserialized pages. Each
// non-nil page must be exactly the size that page has in an n-byte
// memory (SnapPage, except possibly the last); nil entries denote
// all-zero pages. The pages are adopted, not copied.
func PageMapFromPages(n int, pages [][]byte) (*PageMap, error) {
	if n < 0 {
		return nil, fmt.Errorf("amem: negative snapshot length %d", n)
	}
	np := (n + SnapPage - 1) / SnapPage
	if len(pages) != np {
		return nil, fmt.Errorf("amem: snapshot has %d pages, want %d for %d bytes", len(pages), np, n)
	}
	for i, pg := range pages {
		if pg == nil {
			continue
		}
		want := SnapPage
		if i == np-1 {
			want = n - i*SnapPage
		}
		if len(pg) != want {
			return nil, fmt.Errorf("amem: snapshot page %d has %d bytes, want %d", i, len(pg), want)
		}
	}
	return &PageMap{n: n, pages: pages}, nil
}

// Materialize returns a fresh byte slice with the snapshot's contents.
func (pm *PageMap) Materialize() []byte {
	out := make([]byte, pm.n)
	pm.CopyTo(out)
	return out
}

// CopyTo writes the snapshot's contents into dst, which must be exactly
// Len() bytes.
func (pm *PageMap) CopyTo(dst []byte) {
	if len(dst) != pm.n {
		panic(fmt.Sprintf("amem: CopyTo into %d bytes, snapshot is %d", len(dst), pm.n))
	}
	for i, pg := range pm.pages {
		lo := i * SnapPage
		hi := lo + SnapPage
		if hi > pm.n {
			hi = pm.n
		}
		if pg == nil {
			clear(dst[lo:hi])
		} else {
			copy(dst[lo:hi], pg)
		}
	}
}

// Shadow tracks dirty pages of a byte-slice memory between snapshots.
type Shadow struct {
	// Dirty has one entry per SnapPage-sized page. Write barriers set
	// entries directly (Dirty[off>>SnapShift] = true) or via Mark.
	Dirty []bool
	prev  *PageMap
}

// NewShadow returns a Shadow for an n-byte memory. Every page starts
// dirty, so the first Fork captures the full contents.
func NewShadow(n int) *Shadow {
	return &Shadow{Dirty: make([]bool, (n+SnapPage-1)/SnapPage)}
}

// Mark records that n bytes at offset off have been (or are about to
// be) written. Out-of-range spans are clamped.
func (sh *Shadow) Mark(off, n int) {
	if n <= 0 {
		return
	}
	a := off >> SnapShift
	b := (off + n - 1) >> SnapShift
	if a < 0 {
		a = 0
	}
	for ; a <= b && a < len(sh.Dirty); a++ {
		sh.Dirty[a] = true
	}
}

// Fork takes a snapshot of data: dirty pages are copied (with all-zero
// pages elided), clean pages are shared with the previous snapshot. The
// shadow is reset so the next Fork captures only writes after this one.
func (sh *Shadow) Fork(data []byte) *PageMap {
	np := (len(data) + SnapPage - 1) / SnapPage
	pm := &PageMap{n: len(data), pages: make([][]byte, np)}
	share := sh.prev != nil && sh.prev.n == len(data)
	for i := 0; i < np; i++ {
		if share && i < len(sh.Dirty) && !sh.Dirty[i] {
			pm.pages[i] = sh.prev.pages[i]
			continue
		}
		lo := i * SnapPage
		hi := lo + SnapPage
		if hi > len(data) {
			hi = len(data)
		}
		pg := data[lo:hi]
		if !allZero(pg) {
			pm.pages[i] = append([]byte(nil), pg...)
		}
		if i < len(sh.Dirty) {
			sh.Dirty[i] = false
		}
	}
	if np != len(sh.Dirty) {
		sh.Dirty = make([]bool, np)
	}
	sh.prev = pm
	return pm
}

// Reset re-bases the shadow on a snapshot the memory has just been
// restored to: all pages are clean relative to pm, so the next Fork is
// again O(pages dirtied since the restore).
func (sh *Shadow) Reset(pm *PageMap) {
	np := (pm.n + SnapPage - 1) / SnapPage
	if np != len(sh.Dirty) {
		sh.Dirty = make([]bool, np)
	} else {
		clear(sh.Dirty)
	}
	sh.prev = pm
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}
