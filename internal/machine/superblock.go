// Superblock execution: Run fuses straight-line runs of decoded
// instructions into compiled blocks and dispatches block-at-a-time, so
// the per-instruction costs of cached dispatch — the offset
// computation, bounds check, slot load, nil check, and pc store — are
// paid once per block instead of once per step. A block runs from its
// entry point to the first instruction whose decoder marked it
// arch.InsnTerm (branch, call, return, trap, syscall, halt): every
// earlier instruction is guaranteed to fall through to pc+Len, which is
// what licenses executing the run without consulting the cache between
// instructions — and licenses not threading a pc through the run at
// all: each op records its byte offset from the block entry, and only
// the final instruction's successor decides where execution goes next.
// Blocks chain through a predicted-successor link, so a hot loop whose
// branch keeps jumping to the same entry never leaves fused code.
//
// Within a block, instructions the decoder translated to
// machine-independent micro-ops (arch.Uop: register arithmetic, NZC
// compares, sized memory accesses) execute inline in the dispatch
// switch — no indirect call, no closure environment — and everything
// else escapes to the instruction's Exec closure. Formation and
// dispatch are machine-independent: they consume only the Len, Flags,
// and Uop metadata each Arch's Decode attaches to its entries, keeping
// the fusion on the machine-independent side of the paper's
// retargeting seam.
package machine

import (
	"ldb/internal/amem"
	"ldb/internal/arch"
)

// maxBlockInsns bounds how many instructions one superblock fuses; a
// run longer than this is split, which costs one extra dispatch per 64
// instructions and keeps invalidation lookback bounded.
const maxBlockInsns = 64

// maxBlockBytes bounds how many bytes before a written address a
// superblock may start and still cover it (see invalidate).
const maxBlockBytes = maxBlockInsns * maxInsnBytes

// execFn is the predecoded handler signature, named so block slices
// stay readable.
type execFn func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault)

// fusedOp is one compiled instruction of a superblock: an inline
// micro-op (op != arch.UopNone) the dispatch loop executes directly, or
// an escape to the instruction's Exec closure. off is the instruction's
// byte offset from the block entry, from which its own pc is
// reconstructed on the paths that need one (closure calls, faults,
// mid-block aborts). Micro-ops that can abort or branch imply a 4-byte
// instruction — buildBlock compiles memory and terminator ops only from
// entries with Len 4, because the abort and fall-through paths
// reconstruct per-instruction pcs as off+4. Pure register/flag ops
// (arch.Uop.Pure) never reach those paths and fuse at any length, which
// is how the variable-width 68020 joins the fused fast path.
type fusedOp struct {
	x       execFn
	imm     uint32
	op      arch.Uop
	d, s, t uint8
	off     uint16
}

// sblock is one fused run of decoded instructions. nbytes is the byte
// span the run covers, which invalidation uses to drop a block when a
// text write lands anywhere inside it. succ caches the block the last
// execution continued into (valid while succGen matches the segment's
// generation), so stable control flow skips the entry lookup.
type sblock struct {
	ops    []fusedOp
	nbytes uint32
	// fall is true when the final op falls through (a run split
	// mid-stream at maxBlockInsns or the segment edge): the successor is
	// the byte after the block. Otherwise the final op — a terminator
	// micro-op or a closure — computed the successor itself.
	fall bool

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
	var b sblock
	for len(b.ops) < maxBlockInsns {
		d := p.cached(s, off, pc)
		if d == nil {
			break
		}
		u := fusedOp{off: uint16(b.nbytes)}
		if d.Uop != arch.UopNone && (d.Len == 4 || d.Uop.Pure()) {
			u.op, u.d, u.s, u.t, u.imm = d.Uop, d.UD, d.US, d.UT, d.UImm
		} else {
			u.x = execFn(d.Exec)
		}
		b.ops = append(b.ops, u)
		b.nbytes += d.Len
		off += d.Len
		pc += d.Len
		if d.Flags&arch.InsnTerm != 0 || off >= uint32(len(s.decoded)) {
			break
		}
	}
	if len(b.ops) == 0 {
		return nil
	}
	last := b.ops[len(b.ops)-1].op
	b.fall = last != arch.UopNone && !last.Term()
	return &b
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
	if s.sblocks == nil {
		s.sblocks = make([]*sblock, len(s.Data))
	}
	regs := p.regs
	flag := &p.flag
	ap := arch.Proc(p)
	be := p.be
	steps := p.Steps
	var prev *sblock
	for {
		off := pc - s.Base
		if off >= uint32(len(s.sblocks)) {
			break // left the segment; the caller re-resolves
		}
		var b *sblock
		if prev != nil && prev.succ != nil && prev.succPC == pc && prev.succGen == s.gen {
			b = prev.succ
		} else {
			b = s.sblocks[off]
			if b == nil {
				b = p.buildBlock(s, off, pc)
				if b == nil {
					break // entry does not decode: step() raises SIGILL
				}
				s.sblocks[off] = b
				p.Sim.Blocks++
				p.Sim.BlockInsns += int64(len(b.ops))
			}
			if prev != nil {
				prev.succ, prev.succPC, prev.succGen = b, pc, s.gen
			}
		}
		ops := b.ops
		n := len(ops)
		if steps+int64(n) > limit {
			break // take the last few instructions through step()'s per-step check
		}
		gen := s.gen
		bpc := pc
		i := 0
		var f *arch.Fault
		var next, v uint32
		for ; i < n; i++ {
			u := &ops[i]
			switch u.op {
			case arch.UopNone:
				next, f = u.x(ap, regs, flag, bpc+uint32(u.off))
				if f != nil {
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
						v = uint32(d[3]) | uint32(d[2])<<8 | uint32(d[1])<<16 | uint32(d[0])<<24 //ldb:allow endian open-coded load in the arch's declared order; the fused dispatch loop
					} else {
						v = uint32(d[0]) | uint32(d[1])<<8 | uint32(d[2])<<16 | uint32(d[3])<<24 //ldb:allow endian open-coded load in the arch's declared order; the fused dispatch loop
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
						v = uint32(d[1]) | uint32(d[0])<<8 //ldb:allow endian open-coded load in the arch's declared order; the fused dispatch loop
					} else {
						v = uint32(d[0]) | uint32(d[1])<<8 //ldb:allow endian open-coded load in the arch's declared order; the fused dispatch loop
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
				regs[u.d] = bpc + uint32(u.off) + uint32(u.t)
				next = u.imm
			case arch.UopJmpInd:
				next = regs[u.s] + regs[u.t] + u.imm
			case arch.UopJmpIndL:
				v = regs[u.s] + u.imm
				regs[u.d] = bpc + uint32(u.off) + uint32(u.t)
				next = v
			case arch.UopBeq:
				next = bpc + uint32(u.off) + 4
				if regs[u.s] == regs[u.t] {
					next = u.imm
				}
			case arch.UopBne:
				next = bpc + uint32(u.off) + 4
				if regs[u.s] != regs[u.t] {
					next = u.imm
				}
			case arch.UopBlt:
				next = bpc + uint32(u.off) + 4
				if int32(regs[u.s]) < int32(regs[u.t]) {
					next = u.imm
				}
			case arch.UopBge:
				next = bpc + uint32(u.off) + 4
				if int32(regs[u.s]) >= int32(regs[u.t]) {
					next = u.imm
				}
			case arch.UopBle:
				next = bpc + uint32(u.off) + 4
				if int32(regs[u.s]) <= int32(regs[u.t]) {
					next = u.imm
				}
			case arch.UopBgt:
				next = bpc + uint32(u.off) + 4
				if int32(regs[u.s]) > int32(regs[u.t]) {
					next = u.imm
				}
			case arch.UopBcc:
				next = bpc + uint32(u.off) + 4
				if uint32(u.d)>>(*flag&7)&1 != 0 {
					next = u.imm
				}
			}
		}
		steps += int64(n)
		// Only the final instruction decides the next pc: a terminator —
		// micro-op or closure — computed it in next; a fused run split
		// mid-stream falls through to the byte after the block.
		if b.fall {
			pc = bpc + b.nbytes
		} else {
			pc = next
		}
		prev = b
		continue
	abort:
		// Instruction i stored over this segment's text, so the rest of
		// the fused run may be stale. Commit what retired and re-enter
		// through the cache.
		steps += int64(i) + 1
		if ops[i].op != arch.UopNone {
			pc = bpc + uint32(ops[i].off) + 4
		} else {
			pc = next
		}
		prev = nil
		continue
	fault:
		// Steps counts the faulting instruction, exactly as step()
		// does. The Proc-visible pc is not stored per instruction in
		// fused mode, so signal faults minted from it inside Load/Store
		// carry a stale address — restamp them with the faulting
		// instruction's own pc, which is what step() would have
		// recorded. The committed pc is that address too, unless the
		// handler advanced it itself (syscalls SetPC before trapping).
		p.Steps = steps + int64(i) + 1
		if f.Kind != arch.FaultSyscall {
			fpc := bpc + uint32(ops[i].off)
			f.PC = fpc
			p.pc = fpc
		}
		return f
	}
	p.Steps = steps
	p.pc = pc
	return nil
}
