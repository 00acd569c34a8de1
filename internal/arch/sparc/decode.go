package sparc

import (
	"math"

	"ldb/internal/arch"
)

func condTrue(cond int, flag uint32) bool {
	z := flag&FlagZ != 0
	n := flag&FlagN != 0
	c := flag&FlagC != 0
	switch cond {
	case CondLEU:
		return c || z
	case CondCS:
		return c
	case CondGU:
		return !c && !z
	case CondCC:
		return !c
	case CondN:
		return false
	case CondA:
		return true
	case CondE:
		return z
	case CondNE:
		return !z
	case CondL:
		return n
	case CondGE:
		return !n
	case CondLE:
		return z || n
	case CondG:
		return !z && !n
	}
	return false
}

func signExt13(w uint32) uint32 {
	return uint32(int32(w<<19) >> 19)
}

// Decode implements arch.Arch. The second operand of arithmetic and
// memory forms is either a sign-extended 13-bit immediate or a register
// read; decode resolves which once (rs2 < 0 means "use the immediate"),
// and integer instructions predecode to separate register and immediate
// micro-ops so execution never re-tests it. The rest (floats, divide,
// traps, and the rare forms listed below) predecode to closures.
// Writes to %g0 predecode to the -1 slot that arch.RegWrite discards.
// Words that are not legal instructions decode to nil, which the
// simulator reports as SIGILL.
func (s *Sparc) Decode(code []byte, off int, pc uint32) *arch.DecodedInsn {
	if off < 0 || off+4 > len(code) || off&3 != 0 {
		return nil
	}
	w := s.Order().Uint32(code[off : off+4])
	next := pc + 4

	dst := func(r int) int {
		if r == 0 {
			return -1
		}
		return r
	}
	// u starts an instruction that states its semantics as a micro-op.
	u := func() *arch.DecodedInsn { return &arch.DecodedInsn{Len: 4} }
	mk := func(x func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault)) *arch.DecodedInsn {
		return &arch.DecodedInsn{Len: 4, Exec: x}
	}
	// mkT marks control-transfer closures (linked jmpl, traps) that may
	// not fall through to pc+4; superblock formation ends a fused run at
	// the first one.
	mkT := func(x func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault)) *arch.DecodedInsn {
		return &arch.DecodedInsn{Len: 4, Exec: x, Flags: arch.InsnTerm}
	}
	// rs2/simm resolve the register-or-immediate second operand once.
	rs2 := -1
	var simm uint32
	if w&(1<<13) != 0 {
		simm = signExt13(w & 0x1fff)
	} else {
		rs2 = int(w & 31)
	}

	switch w >> 30 {
	case 1: // call
		disp := int32(w<<2) >> 2
		return u().TermUop(arch.UopJmpL, O7, 0, 0, pc+uint32(disp)*4)
	case 0: // sethi / branches
		switch w >> 22 & 7 {
		case 4: // sethi
			return u().AluUop(arch.UopConst, dst(int(w>>25&31)), 0, 0, w<<10)
		case 2, 6: // Bicc / FBfcc
			cond := int(w >> 25 & 15)
			disp := int32(w<<10) >> 10
			// The flags live in bits 0-2, so the condition predecodes
			// to an 8-entry truth table indexed by flag&7.
			var tbl uint32
			for fl := uint32(0); fl < 8; fl++ {
				if condTrue(cond, fl) {
					tbl |= 1 << fl
				}
			}
			return u().TermUop(arch.UopBcc, int(tbl), 0, 0, pc+uint32(disp)*4)
		}
		return nil
	case 2: // arithmetic
		rd := int(w >> 25 & 31)
		d := dst(rd)
		op3 := int(w >> 19 & 63)
		rs1 := int(w >> 14 & 31)
		// alu picks the register or the immediate form of a micro-op.
		alu := func(reg, immOp arch.Uop, imm uint32) *arch.DecodedInsn {
			if rs2 >= 0 {
				return u().AluUop(reg, d, rs1, rs2, 0)
			}
			return u().AluUop(immOp, d, rs1, 0, imm)
		}
		switch op3 {
		case Op3Add:
			return alu(arch.UopAdd, arch.UopAddI, simm)
		case Op3Sub:
			return alu(arch.UopSub, arch.UopAddI, -simm)
		case Op3And:
			return alu(arch.UopAnd, arch.UopAndI, simm)
		case Op3Or:
			return alu(arch.UopOr, arch.UopOrI, simm)
		case Op3Xor:
			return alu(arch.UopXor, arch.UopXorI, simm)
		case Op3SMul:
			if rs2 >= 0 {
				return u().AluUop(arch.UopMul, d, rs1, rs2, 0)
			}
			return mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				arch.RegWrite(regs, d, uint32(int32(regs[rs1])*int32(simm)))
				return next, nil
			})
		case Op3SDiv:
			return mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				b := simm
				if rs2 >= 0 {
					b = regs[rs2]
				}
				if b == 0 {
					return 0, &arch.Fault{Kind: arch.FaultSignal, Sig: arch.SigFPE, PC: pc}
				}
				arch.RegWrite(regs, d, uint32(int32(regs[rs1])/int32(b)))
				return next, nil
			})
		case Op3Sll:
			return alu(arch.UopShl, arch.UopShlI, simm&31)
		case Op3Srl:
			return alu(arch.UopShr, arch.UopShrI, simm&31)
		case Op3Sra:
			return alu(arch.UopSar, arch.UopSarI, simm&31)
		case Op3SubCC:
			switch {
			case d < 0 && rs2 >= 0:
				return u().FlagUop(arch.UopCmp, rs1, rs2, 0)
			case d < 0:
				return u().FlagUop(arch.UopCmpI, rs1, 0, simm)
			}
			return alu(arch.UopSubCC, arch.UopSubCCI, simm)
		case Op3Jmpl:
			switch {
			case d < 0 && rs2 >= 0: // link discarded: plain indirect jump
				return u().TermUop(arch.UopJmpInd, 0, rs1, rs2, 0)
			case d < 0: // ret / retl and friends
				return u().TermUop(arch.UopJmpInd, 0, rs1, 0, simm)
			case rs2 < 0:
				return u().TermUop(arch.UopJmpIndL, d, rs1, 0, simm)
			}
			// The linked register-register jmpl is rare and has no
			// micro-op.
			return mkT(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				t := regs[rs1] + regs[rs2]
				regs[d] = pc
				return t, nil
			})
		case Op3Trap:
			return mkT(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				b := simm
				if rs2 >= 0 {
					b = regs[rs2]
				}
				code := int(b & 0x7f)
				if code == 1 { // ta 1: syscall, number in %g1
					p.SetPC(pc + 4)
					return 0, &arch.Fault{Kind: arch.FaultSyscall, Code: int(regs[G1]), PC: pc}
				}
				return 0, &arch.Fault{Kind: arch.FaultSignal, Sig: arch.SigTrap, Code: code, PC: pc, Len: 4}
			})
		case Op3FPop1:
			opf := int(w >> 5 & 0x1ff)
			fs1 := int(w >> 14 & 31)
			f1, f2 := fs1&7, int(w&31)&7
			fd := rd & 7
			var x func(p arch.Proc, regs []uint32)
			switch opf {
			case OpfFMovs:
				x = func(p arch.Proc, regs []uint32) { p.SetFReg(fd, p.FReg(f1)) }
			case OpfFNegs:
				x = func(p arch.Proc, regs []uint32) { p.SetFReg(fd, -p.FReg(f1)) }
			case OpfFAddS:
				x = func(p arch.Proc, regs []uint32) { p.SetFReg(fd, float64(float32(p.FReg(f1)+p.FReg(f2)))) }
			case OpfFSubS:
				x = func(p arch.Proc, regs []uint32) { p.SetFReg(fd, float64(float32(p.FReg(f1)-p.FReg(f2)))) }
			case OpfFMulS:
				x = func(p arch.Proc, regs []uint32) { p.SetFReg(fd, float64(float32(p.FReg(f1)*p.FReg(f2)))) }
			case OpfFDivS:
				x = func(p arch.Proc, regs []uint32) { p.SetFReg(fd, float64(float32(p.FReg(f1)/p.FReg(f2)))) }
			case OpfFAddD:
				x = func(p arch.Proc, regs []uint32) { p.SetFReg(fd, p.FReg(f1)+p.FReg(f2)) }
			case OpfFSubD:
				x = func(p arch.Proc, regs []uint32) { p.SetFReg(fd, p.FReg(f1)-p.FReg(f2)) }
			case OpfFMulD:
				x = func(p arch.Proc, regs []uint32) { p.SetFReg(fd, p.FReg(f1)*p.FReg(f2)) }
			case OpfFDivD:
				x = func(p arch.Proc, regs []uint32) { p.SetFReg(fd, p.FReg(f1)/p.FReg(f2)) }
			case OpfFiToD:
				x = func(p arch.Proc, regs []uint32) { p.SetFReg(fd, float64(int32(regs[fs1]))) }
			case OpfFdToI:
				x = func(p arch.Proc, regs []uint32) {
					arch.RegWrite(regs, d, uint32(int32(math.Trunc(p.FReg(f2)))))
				}
			case OpfFsToD:
				x = func(p arch.Proc, regs []uint32) { p.SetFReg(fd, p.FReg(f1)) }
			case OpfFdToS:
				x = func(p arch.Proc, regs []uint32) { p.SetFReg(fd, float64(float32(p.FReg(f1)))) }
			default:
				return nil
			}
			return mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				x(p, regs)
				return next, nil
			})
		case Op3FPop2:
			opf := int(w >> 5 & 0x1ff)
			if opf != OpfFCmpS && opf != OpfFCmpD {
				return nil
			}
			f1, f2 := int(w>>14&31)&7, int(w&31)&7
			return mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				av, bv := p.FReg(f1), p.FReg(f2)
				var fl uint32
				if av == bv {
					fl |= FlagZ
				}
				if av < bv {
					fl |= FlagN | FlagC
				}
				*flag = fl
				return next, nil
			})
		}
		return nil
	case 3: // memory
		rd := int(w >> 25 & 31)
		op3 := int(w >> 19 & 63)
		rs1 := int(w >> 14 & 31)
		load := func(size int, uop arch.Uop) *arch.DecodedInsn {
			if rd == 0 {
				// A load into %g0 has no micro-op: the value is discarded
				// but the access must still fault.
				return mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
					b := simm
					if rs2 >= 0 {
						b = regs[rs2]
					}
					if _, f := p.Load(regs[rs1]+b, size); f != nil {
						return 0, f
					}
					return next, nil
				})
			}
			if rs2 >= 0 {
				return u().MemUop(uop, rd, rs1, rs2, 0)
			}
			return u().MemUop(uop, rd, rs1, 0, simm)
		}
		store := func(uop arch.Uop) *arch.DecodedInsn {
			if rs2 >= 0 {
				return u().MemUop(uop, rd, rs1, rs2, 0)
			}
			return u().MemUop(uop, rd, rs1, 0, simm)
		}
		switch op3 {
		case Op3Ld:
			return load(4, arch.UopLd32)
		case Op3Ldub:
			return load(1, arch.UopLd8U)
		case Op3Lduh:
			return load(2, arch.UopLd16U)
		case Op3Ldsb:
			return load(1, arch.UopLd8S)
		case Op3Ldsh:
			return load(2, arch.UopLd16S)
		case Op3St:
			return store(arch.UopSt32)
		case Op3Stb:
			return store(arch.UopSt8)
		case Op3Sth:
			return store(arch.UopSt16)
		case Op3Ldf, Op3Lddf:
			size := 4
			if op3 == Op3Lddf {
				size = 8
			}
			fd := rd & 7
			return mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				b := simm
				if rs2 >= 0 {
					b = regs[rs2]
				}
				v, f := p.LoadFloat(regs[rs1]+b, size)
				if f != nil {
					return 0, f
				}
				p.SetFReg(fd, v)
				return next, nil
			})
		case Op3Stf, Op3Stdf:
			size := 4
			if op3 == Op3Stdf {
				size = 8
			}
			fd := rd & 7
			return mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				b := simm
				if rs2 >= 0 {
					b = regs[rs2]
				}
				if f := p.StoreFloat(regs[rs1]+b, size, p.FReg(fd)); f != nil {
					return 0, f
				}
				return next, nil
			})
		}
		return nil
	}
	return nil
}
