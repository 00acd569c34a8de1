package frame

import (
	"fmt"

	"ldb/internal/amem"
	"ldb/internal/nub"
)

// fpWalker is the single walker shared by the SPARC, the 68020, and
// the VAX (§4.3): all three keep a conventional frame-pointer chain
// with *fp = caller's fp and *(fp+4) = return address. Only data
// differs between the three: which register is the frame pointer and
// the context layout, both already captured by the Arch.
type fpWalker struct {
	t *Target
}

// Top implements Walker: the topmost frame's registers live in the
// context, so every register aliases a context slot; the extra
// registers are immediates.
func (w *fpWalker) Top() (*Frame, error) {
	t := w.t
	alias, wire := contextMemory(t)
	pc, err := fetchCtxPC(t)
	if err != nil {
		return nil, err
	}
	j := join(t, alias, wire)
	fpv, err := j.FetchInt(amem.Abs(amem.Reg, int64(t.A.FPReg())), 4)
	if err != nil {
		return nil, err
	}
	alias.Alias(amem.Abs(amem.Extra, XPC), ctxPCAlias(t))
	alias.Alias(amem.Abs(amem.Extra, XBase), amem.Imm(fpv))
	return &Frame{T: t, Depth: 0, PC: pc, Base: uint32(fpv), Mem: j, Alias: alias, walker: w}, nil
}

// ctxPCAlias aliases x:0 to the saved pc slot in the context, so
// assigning the pc (to resume past a breakpoint) is an ordinary store.
func ctxPCAlias(t *Target) amem.Location {
	return amem.Abs(amem.Data, int64(t.Ctx)+int64(t.A.Context().PCOff))
}

// Caller implements Walker: the calling frame's pc is *(fp+4), its
// frame pointer was saved at *fp, and its sp is fp+8 after the return
// pops the saved words. The aliases in the new alias memory stand for
// locations on the stack, not in the context (§4.1).
func (w *fpWalker) Caller(f *Frame) (*Frame, error) {
	t := w.t
	fp := int64(f.Base)
	if fp == 0 {
		return nil, fmt.Errorf("frame: no caller (frame pointer is zero)")
	}
	// The saved fp and return address are adjacent stack words; fetch
	// both in one round trip.
	b := t.C.NewBatch(2)
	b.FetchInt(amem.Data, uint32(fp), 4)
	b.FetchInt(amem.Data, uint32(fp)+4, 4)
	res := b.Run()
	for _, r := range res {
		if r.Err != nil {
			return nil, r.Err
		}
	}
	oldfp, ra := res[0].Val, res[1].Val
	if ra == 0 {
		return nil, fmt.Errorf("frame: end of stack")
	}
	// oldfp == 0 marks the outermost frame (_start never set one up);
	// it is still a valid frame, but walking past it will fail.
	rawWire := &nub.Wire{C: t.C}
	alias := amem.NewAliasMemory(rawWire)
	// The caller's frame pointer was saved on the stack; its sp and pc
	// are synthesized immediates. Other registers are not recoverable
	// in this calling convention (they are caller-save) and stay
	// unaliased.
	alias.Alias(amem.Abs(amem.Reg, int64(t.A.FPReg())), amem.Abs(amem.Data, fp))
	alias.Alias(amem.Abs(amem.Reg, int64(t.A.SPReg())), amem.Imm(uint64(fp+8)))
	alias.Alias(amem.Abs(amem.Extra, XPC), amem.Imm(ra))
	alias.Alias(amem.Abs(amem.Extra, XBase), amem.Imm(oldfp))
	j := join(t, alias, rawWire)
	return &Frame{T: t, Depth: f.Depth + 1, PC: uint32(ra), Base: uint32(oldfp), Mem: j, Alias: alias, walker: w}, nil
}
