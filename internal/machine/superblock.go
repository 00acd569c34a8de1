// Superblock execution: Run fuses straight-line runs of decoded
// instructions into compiled blocks and dispatches block-at-a-time, so
// the per-instruction costs of cached dispatch — the offset
// computation, bounds check, slot load, empty-slot check, and pc store
// — are paid once per block instead of once per step. A block runs from
// its entry point to the first instruction whose decoder marked it
// arch.InsnTerm (branch, call, return, trap, syscall, halt): every
// earlier instruction is guaranteed to fall through to pc+Len, which is
// what licenses executing the run without consulting the cache between
// instructions — and licenses not threading a pc through the run at
// all: each op records its byte offset from the block entry and its
// length, and only the final instruction decides where execution goes
// next. Blocks chain through a predicted-successor link, so a hot loop
// whose branch keeps jumping to the same entry never leaves fused code.
//
// One executor, exec, runs every instruction either engine retires: a
// superblock's run here, or a run of one in step() (the uncached
// engine, StepOne, and the instructions near the step limit).
// Instructions the decoder stated as machine-independent micro-ops
// (arch.Uop: register arithmetic, NZC compares, sized memory accesses,
// control transfers) execute inline in its switch — no indirect call,
// no closure environment — and everything else calls the instruction's
// Exec closure. Formation and dispatch are machine-independent: they
// consume only the Len, Flags, and Uop metadata each Arch's Decode
// attaches to its entries, keeping the fusion on the machine-independent
// side of the paper's retargeting seam.
package machine

import (
	"ldb/internal/amem"
	"ldb/internal/arch"
)

// maxBlockInsns bounds how many instructions one superblock fuses; a
// run longer than this is split, which costs one extra dispatch per 64
// instructions and keeps invalidation lookback bounded.
const maxBlockInsns = 64

// execFn is the predecoded handler signature, named so block slices
// stay readable.
type execFn func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault)

// fusedOp is one compiled instruction of a run: an inline micro-op
// (op != arch.UopNone) the executor applies directly, or a call to the
// instruction's Exec closure. off is the instruction's byte offset from
// the run's first instruction and size its length, from which its own
// pc and its fall-through pc are reconstructed on the paths that need
// them (closure calls, faults, untaken branches, the run's end).
type fusedOp struct {
	x       execFn
	imm     uint32
	op      arch.Uop
	d, s, t uint8
	off     uint16
	size    uint8
}

// fuse compiles the decoded instruction d at byte offset off of its run.
// d states its semantics once, so exactly one of x and op is set.
func fuse(d *arch.DecodedInsn, off uint32) fusedOp {
	return fusedOp{x: d.Exec, imm: d.UImm, op: d.Uop, d: d.UD, s: d.US, t: d.UT, off: uint16(off), size: uint8(d.Len)}
}

// sblock is one fused run of decoded instructions. nbytes is the byte
// span the run covers, which invalidation uses to drop a block when a
// text write lands anywhere inside it. succ caches the block the last
// execution continued into (valid while succGen matches the segment's
// generation), so stable control flow skips the entry lookup.
type sblock struct {
	ops    []fusedOp
	nbytes uint32

	succ    *sblock
	succPC  uint32
	succGen uint64
}

// buildBlock fuses the straight-line run starting at off/pc. It reuses
// decoded entries already in the segment cache and decodes the rest
// into it (counting them, so hit-rate accounting matches step()); the
// run ends at the first terminator, the first undecodable instruction,
// the end of the segment, or maxBlockInsns. A nil return means the
// entry instruction itself does not decode, and step() raises SIGILL.
func (p *Process) buildBlock(s *Segment, off, pc uint32) *sblock {
	// The run is gathered on the stack and copied out once, at its
	// final length.
	var ops [maxBlockInsns]fusedOp
	n, nbytes := 0, uint32(0)
	for n < maxBlockInsns {
		d := p.cached(s, off, pc)
		if d == nil {
			break
		}
		ops[n] = fuse(d, nbytes)
		n++
		nbytes += d.Len
		off += d.Len
		pc += d.Len
		if d.Flags&arch.InsnTerm != 0 || off >= uint32(len(s.Data)) {
			break
		}
	}
	if n == 0 {
		return nil
	}
	return &sblock{ops: append([]fusedOp(nil), ops[:n]...), nbytes: nbytes}
}

// runFused executes from superblocks until something forces
// per-instruction execution: a fault (returned for Run to deliver), an
// unmapped or undecodable pc, or the step limit drawing near (nil
// return; the caller either fires a due auto-checkpoint or lets the
// step() fallback take over at the committed pc, one checked
// instruction at a time). limit is MaxSteps, possibly tightened to the
// next auto-checkpoint boundary — pacing costs the fast path nothing.
func (p *Process) runFused(limit int64) *arch.Fault {
	pc := p.pc
	s := p.textSeg(pc)
	if s == nil {
		return nil // unmapped pc: step() raises SIGSEGV
	}
	// Empty, not just nil: adopting from a publisher that only stepped
	// installs a zero-length superblock cache.
	if len(s.sblocks) == 0 {
		s.sblocks = make([]*sblock, p.slots(s))
	}
	steps := p.Steps
	mask := uint32(1)<<p.slotShift - 1
	var prev *sblock
	for {
		off := pc - s.Base
		if off >= uint32(len(s.Data)) {
			break // left the segment; the caller re-resolves
		}
		var b *sblock
		if prev != nil && prev.succ != nil && prev.succPC == pc && prev.succGen == s.gen {
			b = prev.succ
		} else {
			if off&mask != 0 {
				break // off an instruction boundary: step() raises SIGILL
			}
			b = s.sblocks[off>>p.slotShift]
			if b == nil {
				b = p.buildBlock(s, off, pc)
				if b == nil {
					break // entry does not decode: step() raises SIGILL
				}
				s.sblocks[off>>p.slotShift] = b
				s.maxBlock = max(s.maxBlock, b.nbytes)
				p.Sim.Blocks++
				p.Sim.BlockInsns += int64(len(b.ops))
			}
			if prev != nil {
				prev.succ, prev.succPC, prev.succGen = b, pc, s.gen
			}
		}
		if steps+int64(len(b.ops)) > limit {
			break // take the last few instructions through step()'s per-step check
		}
		next, n, f := p.exec(s, b.ops, pc)
		steps += int64(n)
		if f != nil {
			p.Steps = steps
			return f
		}
		pc = next
		prev = b
	}
	p.Steps = steps
	p.pc = pc
	return nil
}

// exec runs ops, a straight-line run of s's text whose first
// instruction is at pc, and returns the pc execution continues at and
// the number of instructions retired. It stops early after an
// instruction that stores over s's text, since the rest of the run may
// be stale (the caller re-enters through the cache at next), or at a
// fault: then f is the fault, n counts the faulting instruction (as Run
// counts a faulting step()), and the pc is already committed — to the
// faulting instruction's own, or wherever a syscall handler set it.
func (p *Process) exec(s *Segment, ops []fusedOp, pc uint32) (next uint32, n int, f *arch.Fault) {
	regs := p.regs
	flag := &p.flag
	be := p.be
	gen := s.gen
	var v uint32
	i := 0
	for ; i < len(ops); i++ {
		u := &ops[i]
		switch u.op {
		case arch.UopNone:
			if next, f = u.x(p, regs, flag, pc+uint32(u.off)); f != nil {
				goto fault
			}
			if s.gen != gen {
				goto abort
			}
		case arch.UopNop:
		case arch.UopConst:
			regs[u.d] = u.imm
		case arch.UopAddI:
			regs[u.d] = regs[u.s] + u.imm
		case arch.UopAdd:
			regs[u.d] = regs[u.s] + regs[u.t]
		case arch.UopSub:
			regs[u.d] = regs[u.s] - regs[u.t]
		case arch.UopAnd:
			regs[u.d] = regs[u.s] & regs[u.t]
		case arch.UopAndI:
			regs[u.d] = regs[u.s] & u.imm
		case arch.UopOr:
			regs[u.d] = regs[u.s] | regs[u.t]
		case arch.UopOrI:
			regs[u.d] = regs[u.s] | u.imm
		case arch.UopXor:
			regs[u.d] = regs[u.s] ^ regs[u.t]
		case arch.UopXorI:
			regs[u.d] = regs[u.s] ^ u.imm
		case arch.UopNor:
			regs[u.d] = ^(regs[u.s] | regs[u.t])
		case arch.UopMul:
			regs[u.d] = regs[u.s] * regs[u.t]
		case arch.UopShlI:
			regs[u.d] = regs[u.s] << u.imm
		case arch.UopShrI:
			regs[u.d] = regs[u.s] >> u.imm
		case arch.UopSarI:
			regs[u.d] = uint32(int32(regs[u.s]) >> u.imm)
		case arch.UopShl:
			regs[u.d] = regs[u.s] << (regs[u.t] & 31)
		case arch.UopShr:
			regs[u.d] = regs[u.s] >> (regs[u.t] & 31)
		case arch.UopSar:
			regs[u.d] = uint32(int32(regs[u.s]) >> (regs[u.t] & 31))
		case arch.UopSltI:
			v = 0
			if int32(regs[u.s]) < int32(u.imm) {
				v = 1
			}
			regs[u.d] = v
		case arch.UopSlt:
			v = 0
			if int32(regs[u.s]) < int32(regs[u.t]) {
				v = 1
			}
			regs[u.d] = v
		case arch.UopSltu:
			v = 0
			if regs[u.s] < regs[u.t] {
				v = 1
			}
			regs[u.d] = v
		case arch.UopCmp:
			*flag = arch.SubFlags(regs[u.s], regs[u.t])
		case arch.UopCmpI:
			*flag = arch.SubFlags(regs[u.s], u.imm)
		case arch.UopSubCC:
			a, bb := regs[u.s], regs[u.t]
			regs[u.d] = a - bb
			*flag = arch.SubFlags(a, bb)
		case arch.UopSubCCI:
			a := regs[u.s]
			regs[u.d] = a - u.imm
			*flag = arch.SubFlags(a, u.imm)
		case arch.UopLd32:
			addr := regs[u.s] + regs[u.t] + u.imm
			wd, wb := p.memData, p.memBase
			if uint64(addr-wb)+4 > uint64(len(wd)) {
				wd, wb = p.memData2, p.memBase2
			}
			if uint64(addr-wb)+4 <= uint64(len(wd)) {
				d := wd[addr-wb:]
				if be {
					v = uint32(d[3]) | uint32(d[2])<<8 | uint32(d[1])<<16 | uint32(d[0])<<24 //ldb:allow endian open-coded load in the arch's declared order; the micro-op executor
				} else {
					v = uint32(d[0]) | uint32(d[1])<<8 | uint32(d[2])<<16 | uint32(d[3])<<24 //ldb:allow endian open-coded load in the arch's declared order; the micro-op executor
				}
			} else {
				if v, f = p.Load(addr, 4); f != nil {
					goto fault
				}
			}
			regs[u.d] = v
		case arch.UopLd16U, arch.UopLd16S:
			addr := regs[u.s] + regs[u.t] + u.imm
			wd, wb := p.memData, p.memBase
			if uint64(addr-wb)+2 > uint64(len(wd)) {
				wd, wb = p.memData2, p.memBase2
			}
			if uint64(addr-wb)+2 <= uint64(len(wd)) {
				d := wd[addr-wb:]
				if be {
					v = uint32(d[1]) | uint32(d[0])<<8 //ldb:allow endian open-coded load in the arch's declared order; the micro-op executor
				} else {
					v = uint32(d[0]) | uint32(d[1])<<8 //ldb:allow endian open-coded load in the arch's declared order; the micro-op executor
				}
			} else {
				if v, f = p.Load(addr, 2); f != nil {
					goto fault
				}
			}
			if u.op == arch.UopLd16S {
				v = uint32(int32(int16(v)))
			}
			regs[u.d] = v
		case arch.UopLd8U, arch.UopLd8S:
			addr := regs[u.s] + regs[u.t] + u.imm
			wd, wb := p.memData, p.memBase
			if uint64(addr-wb)+1 > uint64(len(wd)) {
				wd, wb = p.memData2, p.memBase2
			}
			if uint64(addr-wb)+1 <= uint64(len(wd)) {
				v = uint32(wd[addr-wb])
			} else {
				if v, f = p.Load(addr, 1); f != nil {
					goto fault
				}
			}
			if u.op == arch.UopLd8S {
				v = uint32(int32(int8(v)))
			}
			regs[u.d] = v
		case arch.UopSt32:
			addr := regs[u.s] + regs[u.t] + u.imm
			v = regs[u.d]
			wd, wb, ws := p.memData, p.memBase, p.lastSeg
			if uint64(addr-wb)+4 > uint64(len(wd)) {
				wd, wb, ws = p.memData2, p.memBase2, p.memSeg2
			}
			if uint64(addr-wb)+4 <= uint64(len(wd)) {
				d := wd[addr-wb:]
				if be {
					d[0], d[1], d[2], d[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
				} else {
					d[0], d[1], d[2], d[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
				}
				if sh := ws.shadow; sh != nil {
					pg := (addr - wb) >> amem.SnapShift
					sh.Dirty[pg] = true
					if pg2 := (addr - wb + 3) >> amem.SnapShift; pg2 != pg {
						sh.Dirty[pg2] = true
					}
				}
				if ws.decoded != nil || ws.sblocks != nil {
					p.invalidateCaches(ws, addr, 4)
					if s.gen != gen {
						goto abort
					}
				}
			} else {
				if f = p.Store(addr, 4, v); f != nil {
					goto fault
				}
				if s.gen != gen {
					goto abort
				}
			}
		case arch.UopSt16:
			addr := regs[u.s] + regs[u.t] + u.imm
			v = regs[u.d]
			wd, wb, ws := p.memData, p.memBase, p.lastSeg
			if uint64(addr-wb)+2 > uint64(len(wd)) {
				wd, wb, ws = p.memData2, p.memBase2, p.memSeg2
			}
			if uint64(addr-wb)+2 <= uint64(len(wd)) {
				d := wd[addr-wb:]
				if be {
					d[0], d[1] = byte(v>>8), byte(v)
				} else {
					d[0], d[1] = byte(v), byte(v>>8)
				}
				if sh := ws.shadow; sh != nil {
					pg := (addr - wb) >> amem.SnapShift
					sh.Dirty[pg] = true
					if pg2 := (addr - wb + 1) >> amem.SnapShift; pg2 != pg {
						sh.Dirty[pg2] = true
					}
				}
				if ws.decoded != nil || ws.sblocks != nil {
					p.invalidateCaches(ws, addr, 2)
					if s.gen != gen {
						goto abort
					}
				}
			} else {
				if f = p.Store(addr, 2, v); f != nil {
					goto fault
				}
				if s.gen != gen {
					goto abort
				}
			}
		case arch.UopSt8:
			addr := regs[u.s] + regs[u.t] + u.imm
			v = regs[u.d]
			wd, wb, ws := p.memData, p.memBase, p.lastSeg
			if uint64(addr-wb)+1 > uint64(len(wd)) {
				wd, wb, ws = p.memData2, p.memBase2, p.memSeg2
			}
			if uint64(addr-wb)+1 <= uint64(len(wd)) {
				wd[addr-wb] = byte(v)
				if sh := ws.shadow; sh != nil {
					sh.Dirty[(addr-wb)>>amem.SnapShift] = true
				}
				if ws.decoded != nil || ws.sblocks != nil {
					p.invalidateCaches(ws, addr, 1)
					if s.gen != gen {
						goto abort
					}
				}
			} else {
				if f = p.Store(addr, 1, v); f != nil {
					goto fault
				}
				if s.gen != gen {
					goto abort
				}
			}
		// Terminators: always the final op of a block (buildBlock ends
		// the run at InsnTerm), never fault, never invalidate; they
		// compute next and the block-end code below commits it.
		case arch.UopJmp:
			next = u.imm
		case arch.UopJmpL:
			regs[u.d] = pc + uint32(u.off) + uint32(u.t)
			next = u.imm
		case arch.UopJmpInd:
			next = regs[u.s] + regs[u.t] + u.imm
		case arch.UopJmpIndL:
			v = regs[u.s] + u.imm
			regs[u.d] = pc + uint32(u.off) + uint32(u.t)
			next = v
		case arch.UopBeq:
			next = pc + uint32(u.off) + uint32(u.size)
			if regs[u.s] == regs[u.t] {
				next = u.imm
			}
		case arch.UopBne:
			next = pc + uint32(u.off) + uint32(u.size)
			if regs[u.s] != regs[u.t] {
				next = u.imm
			}
		case arch.UopBlt:
			next = pc + uint32(u.off) + uint32(u.size)
			if int32(regs[u.s]) < int32(regs[u.t]) {
				next = u.imm
			}
		case arch.UopBge:
			next = pc + uint32(u.off) + uint32(u.size)
			if int32(regs[u.s]) >= int32(regs[u.t]) {
				next = u.imm
			}
		case arch.UopBle:
			next = pc + uint32(u.off) + uint32(u.size)
			if int32(regs[u.s]) <= int32(regs[u.t]) {
				next = u.imm
			}
		case arch.UopBgt:
			next = pc + uint32(u.off) + uint32(u.size)
			if int32(regs[u.s]) > int32(regs[u.t]) {
				next = u.imm
			}
		case arch.UopBcc:
			next = pc + uint32(u.off) + uint32(u.size)
			if uint32(u.d)>>(*flag&7)&1 != 0 {
				next = u.imm
			}
		}
	}
	i = len(ops) - 1
abort:
	// ops[i] retired last: the run is complete, or the instruction stored
	// over s's text. A terminator, micro-op or closure, computed next
	// itself; any other micro-op falls through to the byte after it.
	if u := &ops[i]; u.op != arch.UopNone && !u.op.Term() {
		next = pc + uint32(u.off) + uint32(u.size)
	}
	return next, i + 1, nil
fault:
	// The Proc-visible pc is not stored per instruction in a run, so
	// signal faults minted from it inside Load/Store carry a stale
	// address — restamp them with the faulting instruction's own pc,
	// which is what the committed pc becomes too, unless the handler
	// advanced it itself (syscalls SetPC before trapping).
	if f.Kind != arch.FaultSyscall {
		fpc := pc + uint32(ops[i].off)
		f.PC = fpc
		p.pc = fpc
	}
	return 0, i + 1, f
}
