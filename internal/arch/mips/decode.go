package mips

import (
	"math"

	"ldb/internal/arch"
)

// dst maps a destination register for decode time: writes to r0 are
// architecturally discarded, so they predecode to the -1 slot that
// arch.RegWrite suppresses. Side effects (load faults, divide checks)
// still execute.
func dst(r int) int {
	if r == 0 {
		return -1
	}
	return r
}

func boolFlag(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// Decode implements arch.Arch. All bit fields, sign extensions, and
// branch/jump targets are extracted here, once. Integer instructions
// predecode to machine-independent micro-ops; the rest (floats, divide
// and remainder, traps, loads into r0) to flat closures that touch only
// the register file and memory. Anything that is not a legal
// instruction decodes to nil, which the simulator reports as SIGILL.
// The simulator interlocks load delay slots (as the R4000 did), so
// scheduling affects code size, not semantics.
func (m *Mips) Decode(code []byte, off int, pc uint32) *arch.DecodedInsn {
	if off < 0 || off+4 > len(code) || off&3 != 0 {
		return nil
	}
	w := m.Order().Uint32(code[off : off+4])
	op := w >> 26
	rs := int(w >> 21 & 31)
	rt := int(w >> 16 & 31)
	rd := int(w >> 11 & 31)
	sh := int(w >> 6 & 31)
	imm := int32(int16(w))
	uimm := uint32(uint16(w))
	next := pc + 4
	btarget := pc + 4 + uint32(imm)<<2

	// u starts an instruction that states its semantics as a micro-op.
	u := func() *arch.DecodedInsn { return &arch.DecodedInsn{Len: 4} }
	mk := func(x func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault)) *arch.DecodedInsn {
		return &arch.DecodedInsn{Len: 4, Exec: x}
	}
	// mkT marks control-transfer closures (traps, syscalls, float
	// branches) that may not fall through to pc+4; superblock formation
	// ends a fused run at the first one.
	mkT := func(x func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault)) *arch.DecodedInsn {
		return &arch.DecodedInsn{Len: 4, Exec: x, Flags: arch.InsnTerm}
	}

	switch op {
	case OpSpecial:
		fn := w & 63
		d := dst(rd)
		switch fn {
		case FnSll:
			return u().AluUop(arch.UopShlI, d, rt, 0, uint32(sh))
		case FnSrl:
			return u().AluUop(arch.UopShrI, d, rt, 0, uint32(sh))
		case FnSra:
			return u().AluUop(arch.UopSarI, d, rt, 0, uint32(sh))
		case FnSllv:
			return u().AluUop(arch.UopShl, d, rt, rs, 0)
		case FnSrlv:
			return u().AluUop(arch.UopShr, d, rt, rs, 0)
		case FnSrav:
			return u().AluUop(arch.UopSar, d, rt, rs, 0)
		case FnJr:
			return u().TermUop(arch.UopJmpInd, 0, rs, 0, 0)
		case FnJalr:
			if d < 0 { // link discarded: plain indirect jump
				return u().TermUop(arch.UopJmpInd, 0, rs, 0, 0)
			}
			return u().TermUop(arch.UopJmpIndL, d, rs, 4, 0)
		case FnSyscall:
			return mkT(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				p.SetPC(pc + 4)
				return 0, &arch.Fault{Kind: arch.FaultSyscall, Code: int(regs[V0]), PC: pc}
			})
		case FnBreak:
			code := int(w >> 6 & 0xfffff)
			return mkT(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				return 0, &arch.Fault{Kind: arch.FaultSignal, Sig: arch.SigTrap, Code: code, PC: pc, Len: 4}
			})
		case FnMul:
			return u().AluUop(arch.UopMul, d, rs, rt, 0)
		case FnDiv:
			return mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				b := regs[rt]
				if b == 0 {
					return 0, &arch.Fault{Kind: arch.FaultSignal, Sig: arch.SigFPE, PC: pc}
				}
				arch.RegWrite(regs, d, uint32(int32(regs[rs])/int32(b)))
				return next, nil
			})
		case FnRem:
			return mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				b := regs[rt]
				if b == 0 {
					return 0, &arch.Fault{Kind: arch.FaultSignal, Sig: arch.SigFPE, PC: pc}
				}
				arch.RegWrite(regs, d, uint32(int32(regs[rs])%int32(b)))
				return next, nil
			})
		case FnAddu:
			return u().AluUop(arch.UopAdd, d, rs, rt, 0)
		case FnSubu:
			return u().AluUop(arch.UopSub, d, rs, rt, 0)
		case FnAnd:
			return u().AluUop(arch.UopAnd, d, rs, rt, 0)
		case FnOr:
			return u().AluUop(arch.UopOr, d, rs, rt, 0)
		case FnXor:
			return u().AluUop(arch.UopXor, d, rs, rt, 0)
		case FnNor:
			return u().AluUop(arch.UopNor, d, rs, rt, 0)
		case FnSlt:
			return u().AluUop(arch.UopSlt, d, rs, rt, 0)
		case FnSltu:
			return u().AluUop(arch.UopSltu, d, rs, rt, 0)
		}
		return nil
	case OpRegimm:
		switch rt {
		case 0: // bltz
			return u().TermUop(arch.UopBlt, 0, rs, 0, btarget)
		case 1: // bgez
			return u().TermUop(arch.UopBge, 0, rs, 0, btarget)
		}
		return nil
	case OpJ:
		return u().TermUop(arch.UopJmp, 0, 0, 0, pc&0xf0000000|w<<6>>4)
	case OpJal:
		return u().TermUop(arch.UopJmpL, RA, 0, 4, pc&0xf0000000|w<<6>>4)
	case OpBeq:
		return u().TermUop(arch.UopBeq, 0, rs, rt, btarget)
	case OpBne:
		return u().TermUop(arch.UopBne, 0, rs, rt, btarget)
	case OpBlez:
		return u().TermUop(arch.UopBle, 0, rs, 0, btarget)
	case OpBgtz:
		return u().TermUop(arch.UopBgt, 0, rs, 0, btarget)
	case OpAddiu:
		return u().AluUop(arch.UopAddI, dst(rt), rs, 0, uint32(imm))
	case OpSlti:
		return u().AluUop(arch.UopSltI, dst(rt), rs, 0, uint32(imm))
	case OpAndi:
		return u().AluUop(arch.UopAndI, dst(rt), rs, 0, uimm)
	case OpOri:
		return u().AluUop(arch.UopOrI, dst(rt), rs, 0, uimm)
	case OpXori:
		return u().AluUop(arch.UopXorI, dst(rt), rs, 0, uimm)
	case OpLui:
		return u().AluUop(arch.UopConst, dst(rt), 0, 0, uimm<<16)
	case OpLb, OpLbu, OpLh, OpLhu, OpLw:
		simm := uint32(imm)
		if rt == 0 {
			// A load into r0 has no micro-op: the value is discarded but
			// the access must still fault.
			size := 4
			switch op {
			case OpLb, OpLbu:
				size = 1
			case OpLh, OpLhu:
				size = 2
			}
			return mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				if _, f := p.Load(regs[rs]+simm, size); f != nil {
					return 0, f
				}
				return next, nil
			})
		}
		uop := arch.UopLd32
		switch op {
		case OpLb:
			uop = arch.UopLd8S
		case OpLbu:
			uop = arch.UopLd8U
		case OpLh:
			uop = arch.UopLd16S
		case OpLhu:
			uop = arch.UopLd16U
		}
		return u().MemUop(uop, rt, rs, 0, simm)
	case OpSb, OpSh, OpSw:
		uop := arch.UopSt32
		switch op {
		case OpSb:
			uop = arch.UopSt8
		case OpSh:
			uop = arch.UopSt16
		}
		return u().MemUop(uop, rt, rs, 0, uint32(imm))
	case OpLwc1, OpLdc1:
		simm := uint32(imm)
		size := 4
		if op == OpLdc1 {
			size = 8
		}
		fr := rt & 7
		return mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
			v, f := p.LoadFloat(regs[rs]+simm, size)
			if f != nil {
				return 0, f
			}
			p.SetFReg(fr, v)
			return next, nil
		})
	case OpSwc1, OpSdc1:
		simm := uint32(imm)
		size := 4
		if op == OpSdc1 {
			size = 8
		}
		fr := rt & 7
		return mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
			if f := p.StoreFloat(regs[rs]+simm, size, p.FReg(fr)); f != nil {
				return 0, f
			}
			return next, nil
		})
	case OpCop1:
		switch rs {
		case C1Mfc1:
			d := dst(rt)
			fr := rd & 7
			return mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				arch.RegWrite(regs, d, uint32(int32(math.Trunc(p.FReg(fr)))))
				return next, nil
			})
		case C1Mtc1:
			fr := rd & 7
			return mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				p.SetFReg(fr, float64(int32(regs[rt])))
				return next, nil
			})
		case C1Bc:
			want := uint32(0)
			if rt&1 != 0 {
				want = 1
			}
			return mkT(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				if *flag&1 == want {
					return btarget, nil
				}
				return next, nil
			})
		case C1FmtS, C1FmtD:
			fs := int(w >> 11 & 7)
			ft := int(w >> 16 & 7)
			fd := int(w >> 6 & 7)
			single := rs == C1FmtS
			set := func(p arch.Proc, v float64) {
				if single {
					v = float64(float32(v))
				}
				p.SetFReg(fd, v)
			}
			var x func(p arch.Proc)
			switch w & 63 {
			case FpAdd:
				x = func(p arch.Proc) { set(p, p.FReg(fs)+p.FReg(ft)) }
			case FpSub:
				x = func(p arch.Proc) { set(p, p.FReg(fs)-p.FReg(ft)) }
			case FpMul:
				x = func(p arch.Proc) { set(p, p.FReg(fs)*p.FReg(ft)) }
			case FpDiv:
				x = func(p arch.Proc) { set(p, p.FReg(fs)/p.FReg(ft)) }
			case FpMov:
				x = func(p arch.Proc) { p.SetFReg(fd, p.FReg(fs)) }
			case FpNeg:
				x = func(p arch.Proc) { set(p, -p.FReg(fs)) }
			case FpCvtS:
				x = func(p arch.Proc) { p.SetFReg(fd, float64(float32(p.FReg(fs)))) }
			case FpCEq:
				x = func(p arch.Proc) { p.SetFlag(boolFlag(p.FReg(fs) == p.FReg(ft))) }
			case FpCLt:
				x = func(p arch.Proc) { p.SetFlag(boolFlag(p.FReg(fs) < p.FReg(ft))) }
			case FpCLe:
				x = func(p arch.Proc) { p.SetFlag(boolFlag(p.FReg(fs) <= p.FReg(ft))) }
			default:
				return nil
			}
			return mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				x(p)
				return next, nil
			})
		}
		return nil
	}
	return nil
}
