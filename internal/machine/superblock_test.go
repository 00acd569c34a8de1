package machine

import (
	"testing"

	"ldb/internal/arch"
	"ldb/internal/arch/mips"
)

// The superblock regression suite. Fusion must be invisible except in
// speed: planting a breakpoint in the middle of a built block, a block
// storing over its own tail, and single-stepping through hot fused
// text must all behave exactly as uncached execution does.

// breakWord assembles the mips break instruction with the given code
// and returns its word, for tests that store trap instructions over
// text the way a debugger's plant does.
func breakWord(t *testing.T, code int) uint32 {
	t.Helper()
	as := mips.NewAsm(mips.Little)
	as.Break(code)
	b, _, err := as.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return mips.Little.Order().Uint32(b)
}

// TestSuperblockPlantMidBlock plants a breakpoint in the interior of an
// already-built superblock — not at its entry — and re-executes from
// the entry. Entry-slot-only invalidation would leave the fused run
// intact and blast straight past the plant; the block must be dropped
// and the trap taken at the planted pc.
func TestSuperblockPlantMidBlock(t *testing.T) {
	m := mips.Little
	as := mips.NewAsm(m)
	as.I(mips.OpAddiu, mips.T0, mips.R0, 0) // TextBase+0: t0 = 0
	as.I(mips.OpAddiu, mips.T0, mips.T0, 1) // +4
	as.I(mips.OpAddiu, mips.T0, mips.T0, 1) // +8: plant target
	as.I(mips.OpAddiu, mips.T0, mips.T0, 1) // +12
	as.Break(3)                             // +16
	code, _, err := as.Finish()
	if err != nil {
		t.Fatal(err)
	}
	p := New(m, code, nil, TextBase)
	f := p.Run()
	if f == nil || f.Sig != arch.SigTrap || f.Code != 3 || p.Reg(mips.T0) != 3 {
		t.Fatalf("first run: %+v, t0=%d", f, p.Reg(mips.T0))
	}
	// The run is hot: the block at TextBase is built. Plant mid-block.
	old := make([]byte, 4)
	if err := p.ReadBytes(TextBase+8, old); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteBytes(TextBase+8, m.BreakInstr()); err != nil {
		t.Fatal(err)
	}
	p.SetPC(TextBase)
	f = p.Run()
	if f == nil || f.Sig != arch.SigTrap || f.Code != arch.TrapBreakpoint {
		t.Fatalf("planted run: %+v", f)
	}
	if f.PC != TextBase+8 || p.PC() != TextBase+8 {
		t.Fatalf("trapped at %#x (pc %#x), want %#x", f.PC, p.PC(), uint32(TextBase+8))
	}
	if got := p.Reg(mips.T0); got != 1 {
		t.Fatalf("t0 = %d at the breakpoint, want 1 (stale fused tail executed?)", got)
	}
	// Unplant and resume at the restored instruction.
	if err := p.WriteBytes(TextBase+8, old); err != nil {
		t.Fatal(err)
	}
	p.SetPC(TextBase + 8)
	f = p.Run()
	if f == nil || f.Code != 3 || p.Reg(mips.T0) != 3 {
		t.Fatalf("resumed run: %+v, t0=%d", f, p.Reg(mips.T0))
	}
}

// TestSuperblockSelfModifyingStore fuses a store that overwrites a
// later instruction of its own block. The fused run must abort at the
// store and re-enter through the cache, so the overwritten instruction
// executes in its new form — and the retired-step accounting must match
// uncached execution exactly.
func TestSuperblockSelfModifyingStore(t *testing.T) {
	m := mips.Little
	brk := breakWord(t, 3)
	as := mips.NewAsm(m)
	// First pass with a placeholder address of the same LI width, to
	// learn where the block under test starts; LI expands to lui+ori
	// for large values, so the placeholder must be one too.
	as.LI(mips.T0+1, int32(TextBase))
	as.LI(mips.T0+2, int32(brk))             // the word the store plants
	entry := uint32(as.Off())                // block under test starts here
	as.I(mips.OpSw, mips.T0+2, mips.T0+1, 0) // entry: text store into own block
	as.I(mips.OpAddiu, mips.T0, mips.T0, 1)  // entry+4
	as.I(mips.OpAddiu, mips.T0, mips.T0, 1)  // entry+8: the victim
	as.Break(5)                              // entry+12
	code, _, err := as.Finish()
	if err != nil {
		t.Fatal(err)
	}
	// Second pass with the victim's real address.
	as = mips.NewAsm(m)
	as.LI(mips.T0+1, int32(TextBase+entry+8))
	as.LI(mips.T0+2, int32(brk))
	as.I(mips.OpSw, mips.T0+2, mips.T0+1, 0)
	as.I(mips.OpAddiu, mips.T0, mips.T0, 1)
	as.I(mips.OpAddiu, mips.T0, mips.T0, 1)
	as.Break(5)
	code2, _, err := as.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(code2) != len(code) {
		t.Fatalf("LI width changed: %d vs %d bytes", len(code2), len(code))
	}
	run := func(noPredecode bool) (*Process, *arch.Fault) {
		p := New(m, code2, nil, TextBase)
		p.NoPredecode = noPredecode
		return p, p.Run()
	}
	pf, ff := run(false)
	pu, fu := run(true)
	if ff == nil || ff.Sig != arch.SigTrap || ff.Code != 3 {
		t.Fatalf("fused: %+v (stale tail executed past the planted word?)", ff)
	}
	if ff.PC != TextBase+entry+8 {
		t.Fatalf("fused trapped at %#x, want %#x", ff.PC, TextBase+entry+8)
	}
	if got := pf.Reg(mips.T0); got != 1 {
		t.Fatalf("fused t0 = %d, want 1", got)
	}
	if fu == nil || *ff != *fu {
		t.Fatalf("fused fault %+v, uncached %+v", ff, fu)
	}
	if pf.Steps != pu.Steps || pf.PC() != pu.PC() || pf.Reg(mips.T0) != pu.Reg(mips.T0) {
		t.Fatalf("fused steps=%d pc=%#x t0=%d; uncached steps=%d pc=%#x t0=%d",
			pf.Steps, pf.PC(), pf.Reg(mips.T0), pu.Steps, pu.PC(), pu.Reg(mips.T0))
	}
}

// TestSuperblockStatsAccounting pins the counter contract: a fused
// block retiring N instructions advances Steps by N, so Hits + Decodes
// + Fallbacks == Steps, and the fusion counters describe formation
// without disturbing hit-rate arithmetic. Uncached, every step is a
// fallback.
func TestSuperblockStatsAccounting(t *testing.T) {
	m := mips.Little
	as := mips.NewAsm(m)
	as.I(mips.OpAddiu, mips.T0+1, mips.R0, 50)
	as.Label("loop")
	as.I(mips.OpAddiu, mips.T0, mips.T0, 1)
	as.Branch(mips.OpBne, mips.T0, mips.T0+1, "loop")
	as.Break(3)
	code, _, err := as.Finish()
	if err != nil {
		t.Fatal(err)
	}
	run := func(noPredecode bool) *Process {
		p := New(m, code, nil, TextBase)
		p.NoPredecode = noPredecode
		if f := p.Run(); f == nil || f.Sig != arch.SigTrap || f.Code != 3 {
			t.Fatalf("noPredecode=%v: %+v", noPredecode, f)
		}
		return p
	}
	pf, pu := run(false), run(true)
	const wantSteps = 1 + 2*50 + 1 // li, 50 loop iterations, break
	if pf.Steps != wantSteps || pu.Steps != wantSteps {
		t.Fatalf("fused ran %d steps, uncached %d, want %d", pf.Steps, pu.Steps, wantSteps)
	}
	// Each of the four instructions decodes once. The entry run (li,
	// addiu, bne), the loop body (addiu, bne), and the break form three
	// blocks of six fused instructions.
	if got, want := pf.SimStats(), (SimStats{Hits: wantSteps - 4, Decodes: 4, Blocks: 3, BlockInsns: 6}); got != want {
		t.Fatalf("fused counters %+v, want %+v", got, want)
	}
	if got, want := pu.SimStats(), (SimStats{Fallbacks: wantSteps}); got != want {
		t.Fatalf("uncached counters %+v, want %+v", got, want)
	}
}

// TestSuperblockStepOne: single steps through text that is hot in the
// block cache retire exactly one instruction each, and a run resumed
// afterwards continues correctly from the mid-block pc.
func TestSuperblockStepOne(t *testing.T) {
	m := mips.Little
	as := mips.NewAsm(m)
	for i := 0; i < 5; i++ {
		as.I(mips.OpAddiu, mips.T0, mips.T0, 1)
	}
	as.Break(3)
	code, _, err := as.Finish()
	if err != nil {
		t.Fatal(err)
	}
	p := New(m, code, nil, TextBase)
	if f := p.Run(); f == nil || f.Code != 3 || p.Reg(mips.T0) != 5 {
		t.Fatalf("first run: %+v, t0=%d", f, p.Reg(mips.T0))
	}
	// The whole run is one hot block. Step from its entry: one
	// instruction per StepOne, no fused lookahead.
	p.SetPC(TextBase)
	for i := 0; i < 3; i++ {
		before := p.Steps
		if f := p.StepOne(); f != nil {
			t.Fatalf("step %d: %+v", i, f)
		}
		if p.Steps != before+1 {
			t.Fatalf("step %d retired %d instructions", i, p.Steps-before)
		}
		if want := TextBase + uint32(4*(i+1)); p.PC() != want {
			t.Fatalf("step %d: pc %#x, want %#x", i, p.PC(), want)
		}
	}
	if got := p.Reg(mips.T0); got != 8 {
		t.Fatalf("t0 = %d after 3 steps, want 8", got)
	}
	// Resume mid-block: the fused engine picks up at an interior pc.
	if f := p.Run(); f == nil || f.Code != 3 || p.Reg(mips.T0) != 10 {
		t.Fatalf("resumed: %+v, t0=%d", p.Run(), p.Reg(mips.T0))
	}
}
