//ldb:target mips
package frame

import (
	"fmt"

	"ldb/internal/amem"
	"ldb/internal/nub"
)

// mipsWalker walks MIPS stacks. The machine has no frame pointer; lcc
// addresses locals through a virtual frame pointer vfp = sp + frame
// size, and the frame size comes from the runtime procedure table in
// the target's address space — available even for procedures without
// debugging symbols (§4.3). The MIPS needs its own linker interface
// for exactly this reason; the extra machine-dependent code here is
// the analog of the paper's extra 250 lines for the MIPS.
type mipsWalker struct {
	t *Target

	rpt []rptEntry // cached after the first read
}

type rptEntry struct {
	addr  uint32
	frame uint32
}

// readRPT fetches the runtime procedure table from target memory,
// on demand and at most once (§7 notes such fetches are memoized).
func (w *mipsWalker) readRPT() error {
	if w.rpt != nil {
		return nil
	}
	t := w.t
	if t.RPT == 0 {
		return fmt.Errorf("frame: no runtime procedure table")
	}
	n, err := t.C.FetchInt(amem.Data, t.RPT, 4)
	if err != nil {
		return err
	}
	if n > 4096 {
		return fmt.Errorf("frame: implausible runtime procedure table (%d entries)", n)
	}
	// The table is 2n consecutive words; batch the reads into one
	// round trip instead of 2n.
	b := t.C.NewBatch(2 * int(n))
	for i := uint32(0); i < 2*uint32(n); i++ {
		b.FetchInt(amem.Data, t.RPT+4+4*i, 4)
	}
	res := b.Run()
	for _, r := range res {
		if r.Err != nil {
			return r.Err
		}
	}
	for i := 0; i < len(res); i += 2 {
		w.rpt = append(w.rpt, rptEntry{addr: uint32(res[i].Val), frame: uint32(res[i+1].Val)})
	}
	return nil
}

// frameSize finds the frame size of the procedure containing pc.
func (w *mipsWalker) frameSize(pc uint32) (uint32, error) {
	if err := w.readRPT(); err != nil {
		return 0, err
	}
	best := -1
	for i, e := range w.rpt {
		if e.addr <= pc && (best < 0 || e.addr >= w.rpt[best].addr) {
			best = i
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("frame: pc %#x not in the runtime procedure table", pc)
	}
	return w.rpt[best].frame, nil
}

// Top implements Walker: registers alias the context; the extra
// registers (pc and the virtual frame pointer) alias immediates; the
// vfp is sp plus the frame size from the runtime procedure table.
func (w *mipsWalker) Top() (*Frame, error) {
	t := w.t
	alias, wire := contextMemory(t)
	pc, err := fetchCtxPC(t)
	if err != nil {
		return nil, err
	}
	j := join(t, alias, wire)
	sp, err := j.FetchInt(amem.Abs(amem.Reg, int64(t.A.SPReg())), 4)
	if err != nil {
		return nil, err
	}
	fsize, err := w.frameSize(pc)
	if err != nil {
		return nil, err
	}
	vfp := uint32(sp) + fsize
	alias.Alias(amem.Abs(amem.Extra, XPC), ctxPCAlias(t))
	alias.Alias(amem.Abs(amem.Extra, XBase), amem.Imm(uint64(vfp)))
	return &Frame{T: t, Depth: 0, PC: pc, Base: vfp, Mem: j, Alias: alias, walker: w}, nil
}

// Caller implements Walker: the return address was saved at vfp-4, the
// caller's sp is the callee's vfp, and the caller's vfp is its sp plus
// its own frame size from the runtime procedure table.
func (w *mipsWalker) Caller(f *Frame) (*Frame, error) {
	t := w.t
	vfp := int64(f.Base)
	ra, err := f.Mem.FetchInt(amem.Abs(amem.Data, vfp-4), 4)
	if err != nil {
		return nil, err
	}
	if ra == 0 {
		return nil, fmt.Errorf("frame: end of stack")
	}
	callerSP := uint32(vfp)
	fsize, err := w.frameSize(uint32(ra))
	if err != nil {
		return nil, fmt.Errorf("frame: caller at %#x: %w", ra, err)
	}
	callerVFP := callerSP + fsize
	wire := &nub.Wire{C: t.C}
	alias := amem.NewAliasMemory(wire)
	alias.Alias(amem.Abs(amem.Reg, int64(t.A.SPReg())), amem.Imm(uint64(callerSP)))
	alias.Alias(amem.Abs(amem.Reg, int64(t.A.LinkReg())), amem.Abs(amem.Data, int64(callerVFP)-4))
	alias.Alias(amem.Abs(amem.Extra, XPC), amem.Imm(ra))
	alias.Alias(amem.Abs(amem.Extra, XBase), amem.Imm(uint64(callerVFP)))
	j := join(t, alias, wire)
	return &Frame{T: t, Depth: f.Depth + 1, PC: uint32(ra), Base: callerVFP, Mem: j, Alias: alias, walker: w}, nil
}
