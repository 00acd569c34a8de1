package machine

import (
	"testing"

	"ldb/internal/arch"
	"ldb/internal/arch/mips"
)

// The cross-process sharing suite: a warm adopter must execute with
// zero decode work, one session's breakpoint plant must never reach
// another session's view of the shared cache, and mutated text must key
// away from the pristine entry.

func shareProg(t *testing.T) []byte {
	t.Helper()
	m := mips.Little
	as := mips.NewAsm(m)
	as.I(mips.OpAddiu, mips.T0+1, mips.R0, 20)
	as.Label("loop")
	as.I(mips.OpAddiu, mips.T0, mips.T0, 1)
	as.Branch(mips.OpBne, mips.T0, mips.T0+1, "loop")
	as.Break(3)
	code, _, err := as.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return code
}

func shareRun(t *testing.T, p *Process) {
	t.Helper()
	if f := p.Run(); f == nil || f.Sig != arch.SigTrap || f.Code != 3 {
		t.Fatalf("run: %+v", f)
	}
}

// TestShareWarmAdoptZeroDecodes publishes one process's decode products
// and checks a second identical process runs entirely from them: zero
// decodes, full hit rate, same architectural outcome.
func TestShareWarmAdoptZeroDecodes(t *testing.T) {
	code := shareProg(t)
	c := NewTextCache()

	p1 := New(mips.Little, code, nil, TextBase)
	if c.Adopt(p1) {
		t.Fatal("adopted from an empty cache")
	}
	shareRun(t, p1)
	if !c.Publish(p1) {
		t.Fatal("publish failed")
	}
	if c.Publish(p1) {
		t.Fatal("second publish of the same content replaced the entry")
	}

	p2 := New(mips.Little, code, nil, TextBase)
	if !c.Adopt(p2) {
		t.Fatal("identical text did not adopt")
	}
	shareRun(t, p2)
	if s := p2.SimStats(); s.Decodes != 0 {
		t.Fatalf("warm process decoded %d instructions, want 0 (%+v)", s.Decodes, s)
	}
	if p1.Steps != p2.Steps || p1.Reg(mips.T0) != p2.Reg(mips.T0) {
		t.Fatalf("warm run diverged: steps %d vs %d, t0 %d vs %d",
			p1.Steps, p2.Steps, p1.Reg(mips.T0), p2.Reg(mips.T0))
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("cache counters: %d hits, %d misses, want 1/1", hits, misses)
	}
}

// TestSharePlantIsolation plants a breakpoint in an adopted process and
// verifies the copy-on-write seam: the planter traps, while a second
// adopter of the same shared entry still sees pristine text and decoded
// state — one user's breakpoint never slows (or breaks) another's run.
func TestSharePlantIsolation(t *testing.T) {
	code := shareProg(t)
	m := mips.Little
	c := NewTextCache()

	p1 := New(m, code, nil, TextBase)
	shareRun(t, p1)
	c.Publish(p1)

	pa := New(m, code, nil, TextBase)
	pb := New(m, code, nil, TextBase)
	if !c.Adopt(pa) || !c.Adopt(pb) {
		t.Fatal("adopt failed")
	}
	// Plant in pa: the write privatizes its decoded slice and drops its
	// own blocks, but must leave the published entry untouched.
	if err := pa.WriteBytes(TextBase+4, m.BreakInstr()); err != nil {
		t.Fatal(err)
	}
	if f := pa.Run(); f == nil || f.Sig != arch.SigTrap || f.Code != arch.TrapBreakpoint || f.PC != TextBase+4 {
		t.Fatalf("planted run: %+v", f)
	}
	// pb runs to completion on the shared entry, still decode-free.
	shareRun(t, pb)
	if s := pb.SimStats(); s.Decodes != 0 || s.Invalidations != 0 {
		t.Fatalf("unplanted adopter disturbed: %+v", s)
	}
	// A third adopter after the plant still gets the pristine entry.
	pc := New(m, code, nil, TextBase)
	if !c.Adopt(pc) {
		t.Fatal("pristine adopt failed after another session planted")
	}
	shareRun(t, pc)
	if s := pc.SimStats(); s.Decodes != 0 {
		t.Fatalf("third adopter decoded %d, want 0", s.Decodes)
	}
}

// TestShareMutatedTextKeysAway: a process that published with a planted
// trap in text publishes under the mutated content's key, so a pristine
// process never adopts it — and a process with the same mutation does.
func TestShareMutatedTextKeysAway(t *testing.T) {
	code := shareProg(t)
	m := mips.Little
	c := NewTextCache()

	p1 := New(m, code, nil, TextBase)
	shareRun(t, p1)
	if err := p1.WriteBytes(TextBase+4, m.BreakInstr()); err != nil {
		t.Fatal(err)
	}
	p1.SetPC(TextBase)
	if f := p1.Run(); f == nil || f.Code != arch.TrapBreakpoint {
		t.Fatalf("planted run: %+v", f)
	}
	if !c.Publish(p1) {
		t.Fatal("publish of mutated text failed")
	}

	clean := New(m, code, nil, TextBase)
	if c.Adopt(clean) {
		t.Fatal("pristine text adopted a mutated-content entry")
	}

	mut := append([]byte(nil), code...)
	copy(mut[4:], m.BreakInstr())
	same := New(m, mut, nil, TextBase)
	if !c.Adopt(same) {
		t.Fatal("identically mutated text did not adopt")
	}
	if f := same.Run(); f == nil || f.Code != arch.TrapBreakpoint || f.PC != TextBase+4 {
		t.Fatalf("mutated adopter: %+v", f)
	}
	if s := same.SimStats(); s.Decodes != 0 {
		t.Fatalf("mutated adopter decoded %d, want 0", s.Decodes)
	}
}

// TestSharePublisherKeepsRunning: publishing marks the owner's cache
// read-only, so a plant after publish privatizes instead of corrupting
// the shared entry a later adopter receives.
func TestSharePublisherKeepsRunning(t *testing.T) {
	code := shareProg(t)
	m := mips.Little
	c := NewTextCache()

	p1 := New(m, code, nil, TextBase)
	shareRun(t, p1)
	c.Publish(p1)
	// Owner mutates after publishing.
	if err := p1.WriteBytes(TextBase+4, m.BreakInstr()); err != nil {
		t.Fatal(err)
	}
	p1.SetPC(TextBase)
	if f := p1.Run(); f == nil || f.Code != arch.TrapBreakpoint {
		t.Fatalf("owner planted run: %+v", f)
	}

	p2 := New(m, code, nil, TextBase)
	if !c.Adopt(p2) {
		t.Fatal("adopt failed")
	}
	shareRun(t, p2)
	if s := p2.SimStats(); s.Decodes != 0 {
		t.Fatalf("adopter decoded %d after owner mutation, want 0", s.Decodes)
	}
	if p2.Reg(mips.T0) != 20 {
		t.Fatalf("adopter t0 = %d, want 20", p2.Reg(mips.T0))
	}
}

// TestShareSteppedPublisher: a process that only single-stepped has a
// decode cache but no superblock cache. Publishing it must not hand a
// later adopter an empty superblock cache that its first Run indexes.
func TestShareSteppedPublisher(t *testing.T) {
	code := shareProg(t)
	c := NewTextCache()

	p1 := New(mips.Little, code, nil, TextBase)
	for i := 0; i < 3; i++ {
		if f := p1.StepOne(); f != nil {
			t.Fatalf("step %d: %+v", i, f)
		}
	}
	if !c.Publish(p1) {
		t.Fatal("publish failed")
	}

	p2 := New(mips.Little, code, nil, TextBase)
	if !c.Adopt(p2) {
		t.Fatal("identical text did not adopt")
	}
	shareRun(t, p2)
	if p2.Reg(mips.T0) != 20 {
		t.Fatalf("adopter t0 = %d, want 20", p2.Reg(mips.T0))
	}
}

// TestShareAdoptedBlockPlantMidBlock: an adopter that plants inside a
// multi-instruction adopted block before it first runs must trap at the
// plant. The adopter has built no block of its own, so only the blocks
// it adopted tell invalidation how far back a write can land inside
// one; a lookback that ignored them would leave the straight-line block
// from the entry in place, and the run would miss the trap.
func TestShareAdoptedBlockPlantMidBlock(t *testing.T) {
	m := mips.Little
	as := mips.NewAsm(m)
	for k := int32(1); k <= 4; k++ {
		as.I(mips.OpAddiu, mips.T0, mips.T0, k)
	}
	as.Break(3)
	code, _, err := as.Finish()
	if err != nil {
		t.Fatal(err)
	}
	c := NewTextCache()
	p1 := New(m, code, nil, TextBase)
	shareRun(t, p1)
	if s := p1.SimStats(); s.Blocks != 1 || s.BlockInsns != 5 {
		t.Fatalf("publisher formed %d blocks of %d instructions, want one of 5", s.Blocks, s.BlockInsns)
	}
	c.Publish(p1)

	p2 := New(m, code, nil, TextBase)
	if !c.Adopt(p2) {
		t.Fatal("adopt failed")
	}
	if err := p2.WriteBytes(TextBase+8, m.BreakInstr()); err != nil {
		t.Fatal(err)
	}
	if f := p2.Run(); f == nil || f.Code != arch.TrapBreakpoint || f.PC != TextBase+8 {
		t.Fatalf("planted adopter: %+v, want the breakpoint at %#x", f, TextBase+8)
	}
	if got := p2.Reg(mips.T0); got != 1+2 {
		t.Fatalf("t0 = %d at the plant, want 3", got)
	}
}
