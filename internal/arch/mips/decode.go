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
// branch/jump targets are extracted here, once; the returned handlers
// are flat closures that touch only the register file and memory.
// Anything that is not a legal instruction decodes to nil, which the
// simulator reports as SIGILL. The simulator interlocks load delay
// slots (as the R4000 did), so scheduling affects code size, not
// semantics.
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

	mk := func(x func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault)) *arch.DecodedInsn {
		return &arch.DecodedInsn{Len: 4, Exec: x}
	}
	// mkT marks control-transfer instructions (branches, jumps, traps,
	// syscalls) that may not fall through to pc+4; superblock formation
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
			return mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				arch.RegWrite(regs, d, regs[rt]<<sh)
				return next, nil
			}).AluUop(arch.UopShlI, d, rt, 0, uint32(sh))
		case FnSrl:
			return mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				arch.RegWrite(regs, d, regs[rt]>>sh)
				return next, nil
			}).AluUop(arch.UopShrI, d, rt, 0, uint32(sh))
		case FnSra:
			return mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				arch.RegWrite(regs, d, uint32(int32(regs[rt])>>sh))
				return next, nil
			}).AluUop(arch.UopSarI, d, rt, 0, uint32(sh))
		case FnSllv:
			return mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				arch.RegWrite(regs, d, regs[rt]<<(regs[rs]&31))
				return next, nil
			}).AluUop(arch.UopShl, d, rt, rs, 0)
		case FnSrlv:
			return mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				arch.RegWrite(regs, d, regs[rt]>>(regs[rs]&31))
				return next, nil
			}).AluUop(arch.UopShr, d, rt, rs, 0)
		case FnSrav:
			return mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				arch.RegWrite(regs, d, uint32(int32(regs[rt])>>(regs[rs]&31)))
				return next, nil
			}).AluUop(arch.UopSar, d, rt, rs, 0)
		case FnJr:
			return mkT(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				return regs[rs], nil
			}).TermUop(arch.UopJmpInd, 0, rs, 0, 0)
		case FnJalr:
			di := mkT(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				t := regs[rs]
				arch.RegWrite(regs, d, pc+4)
				return t, nil
			})
			if d < 0 { // link discarded: plain indirect jump
				return di.TermUop(arch.UopJmpInd, 0, rs, 0, 0)
			}
			return di.TermUop(arch.UopJmpIndL, d, rs, 4, 0)
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
			return mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				arch.RegWrite(regs, d, uint32(int32(regs[rs])*int32(regs[rt])))
				return next, nil
			}).AluUop(arch.UopMul, d, rs, rt, 0)
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
			return mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				arch.RegWrite(regs, d, regs[rs]+regs[rt])
				return next, nil
			}).AluUop(arch.UopAdd, d, rs, rt, 0)
		case FnSubu:
			return mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				arch.RegWrite(regs, d, regs[rs]-regs[rt])
				return next, nil
			}).AluUop(arch.UopSub, d, rs, rt, 0)
		case FnAnd:
			return mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				arch.RegWrite(regs, d, regs[rs]&regs[rt])
				return next, nil
			}).AluUop(arch.UopAnd, d, rs, rt, 0)
		case FnOr:
			return mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				arch.RegWrite(regs, d, regs[rs]|regs[rt])
				return next, nil
			}).AluUop(arch.UopOr, d, rs, rt, 0)
		case FnXor:
			return mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				arch.RegWrite(regs, d, regs[rs]^regs[rt])
				return next, nil
			}).AluUop(arch.UopXor, d, rs, rt, 0)
		case FnNor:
			return mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				arch.RegWrite(regs, d, ^(regs[rs] | regs[rt]))
				return next, nil
			}).AluUop(arch.UopNor, d, rs, rt, 0)
		case FnSlt:
			return mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				arch.RegWrite(regs, d, boolFlag(int32(regs[rs]) < int32(regs[rt])))
				return next, nil
			}).AluUop(arch.UopSlt, d, rs, rt, 0)
		case FnSltu:
			return mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				arch.RegWrite(regs, d, boolFlag(regs[rs] < regs[rt]))
				return next, nil
			}).AluUop(arch.UopSltu, d, rs, rt, 0)
		}
		return nil
	case OpRegimm:
		switch rt {
		case 0: // bltz
			return mkT(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				if int32(regs[rs]) < 0 {
					return btarget, nil
				}
				return next, nil
			}).TermUop(arch.UopBlt, 0, rs, 0, btarget)
		case 1: // bgez
			return mkT(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				if int32(regs[rs]) >= 0 {
					return btarget, nil
				}
				return next, nil
			}).TermUop(arch.UopBge, 0, rs, 0, btarget)
		}
		return nil
	case OpJ:
		target := pc&0xf0000000 | w<<6>>4
		return mkT(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
			return target, nil
		}).TermUop(arch.UopJmp, 0, 0, 0, target)
	case OpJal:
		target := pc&0xf0000000 | w<<6>>4
		return mkT(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
			regs[RA] = pc + 4
			return target, nil
		}).TermUop(arch.UopJmpL, RA, 0, 4, target)
	case OpBeq:
		return mkT(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
			if regs[rs] == regs[rt] {
				return btarget, nil
			}
			return next, nil
		}).TermUop(arch.UopBeq, 0, rs, rt, btarget)
	case OpBne:
		return mkT(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
			if regs[rs] != regs[rt] {
				return btarget, nil
			}
			return next, nil
		}).TermUop(arch.UopBne, 0, rs, rt, btarget)
	case OpBlez:
		return mkT(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
			if int32(regs[rs]) <= 0 {
				return btarget, nil
			}
			return next, nil
		}).TermUop(arch.UopBle, 0, rs, 0, btarget)
	case OpBgtz:
		return mkT(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
			if int32(regs[rs]) > 0 {
				return btarget, nil
			}
			return next, nil
		}).TermUop(arch.UopBgt, 0, rs, 0, btarget)
	case OpAddiu:
		d := dst(rt)
		simm := uint32(imm)
		return mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
			arch.RegWrite(regs, d, regs[rs]+simm)
			return next, nil
		}).AluUop(arch.UopAddI, d, rs, 0, simm)
	case OpSlti:
		d := dst(rt)
		return mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
			arch.RegWrite(regs, d, boolFlag(int32(regs[rs]) < imm))
			return next, nil
		}).AluUop(arch.UopSltI, d, rs, 0, uint32(imm))
	case OpAndi:
		d := dst(rt)
		return mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
			arch.RegWrite(regs, d, regs[rs]&uimm)
			return next, nil
		}).AluUop(arch.UopAndI, d, rs, 0, uimm)
	case OpOri:
		d := dst(rt)
		return mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
			arch.RegWrite(regs, d, regs[rs]|uimm)
			return next, nil
		}).AluUop(arch.UopOrI, d, rs, 0, uimm)
	case OpXori:
		d := dst(rt)
		return mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
			arch.RegWrite(regs, d, regs[rs]^uimm)
			return next, nil
		}).AluUop(arch.UopXorI, d, rs, 0, uimm)
	case OpLui:
		d := dst(rt)
		v := uimm << 16
		return mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
			arch.RegWrite(regs, d, v)
			return next, nil
		}).AluUop(arch.UopConst, d, 0, 0, v)
	case OpLb, OpLbu, OpLh, OpLhu, OpLw:
		d := dst(rt)
		simm := uint32(imm)
		size := 4
		switch op {
		case OpLb, OpLbu:
			size = 1
		case OpLh, OpLhu:
			size = 2
		}
		signed := 0
		if op == OpLb {
			signed = 1
		} else if op == OpLh {
			signed = 2
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
		return mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
			v, f := p.Load(regs[rs]+simm, size)
			if f != nil {
				return 0, f
			}
			switch signed {
			case 1:
				v = uint32(int32(int8(v)))
			case 2:
				v = uint32(int32(int16(v)))
			}
			arch.RegWrite(regs, d, v)
			return next, nil
		}).MemUop(uop, d, rs, 0, simm)
	case OpSb, OpSh, OpSw:
		simm := uint32(imm)
		size := 4
		if op == OpSb {
			size = 1
		} else if op == OpSh {
			size = 2
		}
		uop := arch.UopSt32
		switch op {
		case OpSb:
			uop = arch.UopSt8
		case OpSh:
			uop = arch.UopSt16
		}
		return mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
			if f := p.Store(regs[rs]+simm, size, regs[rt]); f != nil {
				return 0, f
			}
			return next, nil
		}).MemUop(uop, rt, rs, 0, simm)
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
