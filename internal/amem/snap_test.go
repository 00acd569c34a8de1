package amem

import (
	"bytes"
	"testing"
)

func TestShadowForkSharesCleanPages(t *testing.T) {
	n := 4 * SnapPage
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i)
	}
	sh := NewShadow(n)
	pm1 := sh.Fork(data)
	if pm1.Len() != n || pm1.NumPages() != 4 {
		t.Fatalf("first fork: len %d pages %d", pm1.Len(), pm1.NumPages())
	}
	if !bytes.Equal(pm1.Materialize(), data) {
		t.Fatal("first fork does not match data")
	}

	// Dirty only page 2; the second fork must share pages 0, 1, 3.
	data[2*SnapPage] = 0xEE
	sh.Mark(2*SnapPage, 1)
	pm2 := sh.Fork(data)
	for i := 0; i < 4; i++ {
		shared := &pm1.pages[i][0] == &pm2.pages[i][0]
		if i == 2 && shared {
			t.Fatal("dirty page 2 shared with previous snapshot")
		}
		if i != 2 && !shared {
			t.Fatalf("clean page %d not shared with previous snapshot", i)
		}
	}
	if !bytes.Equal(pm2.Materialize(), data) {
		t.Fatal("second fork does not match data")
	}
	// pm1 is immutable: it still holds the old byte.
	want := byte(2 * SnapPage % 256)
	if got := pm1.Materialize()[2*SnapPage]; got != want {
		t.Fatalf("snapshot mutated: page 2 byte 0 = %#x, want %#x", got, want)
	}
}

func TestShadowZeroPageElision(t *testing.T) {
	n := 3*SnapPage + 100 // ragged tail
	data := make([]byte, n)
	data[SnapPage+5] = 7 // only page 1 is nonzero
	sh := NewShadow(n)
	pm := sh.Fork(data)
	if pm.NumPages() != 4 {
		t.Fatalf("pages = %d, want 4", pm.NumPages())
	}
	for i := 0; i < 4; i++ {
		if i == 1 && pm.Page(i) == nil {
			t.Fatal("nonzero page 1 elided")
		}
		if i != 1 && pm.Page(i) != nil {
			t.Fatalf("all-zero page %d not elided", i)
		}
	}
	if !bytes.Equal(pm.Materialize(), data) {
		t.Fatal("materialized snapshot does not match data")
	}
}

func TestShadowMarkSpansPages(t *testing.T) {
	sh := NewShadow(3 * SnapPage)
	clear(sh.Dirty)
	sh.Mark(SnapPage-2, 4) // straddles pages 0 and 1
	if !sh.Dirty[0] || !sh.Dirty[1] || sh.Dirty[2] {
		t.Fatalf("dirty = %v", sh.Dirty)
	}
	sh.Mark(10*SnapPage, 4) // out of range: clamped, no panic
	sh.Mark(-5, 2)
}

func TestPageMapFromPagesValidates(t *testing.T) {
	if _, err := PageMapFromPages(SnapPage+1, make([][]byte, 1)); err == nil {
		t.Fatal("wrong page count accepted")
	}
	if _, err := PageMapFromPages(SnapPage, [][]byte{make([]byte, 17)}); err == nil {
		t.Fatal("wrong page size accepted")
	}
	pm, err := PageMapFromPages(SnapPage+4, [][]byte{nil, []byte{1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, SnapPage+4)
	copy(want[SnapPage:], []byte{1, 2, 3, 4})
	if !bytes.Equal(pm.Materialize(), want) {
		t.Fatal("materialized mismatch")
	}
}

// TestShadowForkAfterResetSharesRestoredPages: once memory has been
// restored to a snapshot and the shadow re-based on it, a Fork shares
// every page nothing has dirtied since with that snapshot.
func TestShadowForkAfterResetSharesRestoredPages(t *testing.T) {
	data := make([]byte, 2*SnapPage)
	data[8], data[SnapPage+8] = 1, 2
	sh := NewShadow(len(data))
	pm := sh.Fork(data)

	// Scribble on both pages, then restore pm and re-base the shadow.
	data[8], data[SnapPage+8] = 0xAA, 0xBB
	sh.Mark(8, 1)
	sh.Mark(SnapPage+8, 1)
	pm.CopyTo(data)
	sh.Reset(pm)

	data[SnapPage+9] = 3
	sh.Mark(SnapPage+9, 1)
	pm2 := sh.Fork(data)
	if &pm2.Page(0)[0] != &pm.Page(0)[0] {
		t.Fatal("clean page 0 not shared with the restored snapshot")
	}
	if &pm2.Page(1)[0] == &pm.Page(1)[0] {
		t.Fatal("page 1, dirtied after the restore, shared with the restored snapshot")
	}
	if !bytes.Equal(pm2.Materialize(), data) || pm.Materialize()[SnapPage+9] != 0 {
		t.Fatal("fork after reset does not match memory, or the restored snapshot changed")
	}
}
