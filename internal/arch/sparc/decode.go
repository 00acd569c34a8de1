package sparc

import (
	"math"

	"ldb/internal/arch"
)

// subFlags computes the condition codes subcc sets for a - b.
func subFlags(a, b uint32) uint32 {
	var fl uint32
	if a == b {
		fl |= FlagZ
	}
	if int32(a) < int32(b) {
		fl |= FlagN
	}
	if a < b {
		fl |= FlagC
	}
	return fl
}

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
// and the hottest forms predecode to separate register and immediate
// closures so execution never re-tests it.
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
	mk := func(x func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault)) *arch.DecodedInsn {
		return &arch.DecodedInsn{Len: 4, Exec: x}
	}
	// mkT marks control-transfer instructions (call, branches, jmpl,
	// traps) that may not fall through to pc+4; superblock formation
	// ends a fused run at the first one.
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
		target := pc + uint32(disp)*4
		return mkT(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
			regs[O7] = pc
			return target, nil
		}).TermUop(arch.UopJmpL, O7, 0, 0, target)
	case 0: // sethi / branches
		switch w >> 22 & 7 {
		case 4: // sethi
			d := dst(int(w >> 25 & 31))
			v := w << 10
			return mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				arch.RegWrite(regs, d, v)
				return next, nil
			}).AluUop(arch.UopConst, d, 0, 0, v)
		case 2, 6: // Bicc / FBfcc
			cond := int(w >> 25 & 15)
			disp := int32(w<<10) >> 10
			target := pc + uint32(disp)*4
			// The flags live in bits 0-2, so the condition predecodes
			// to an 8-entry truth table indexed by flag&7.
			var tbl uint32
			for fl := uint32(0); fl < 8; fl++ {
				if condTrue(cond, fl) {
					tbl |= 1 << fl
				}
			}
			return mkT(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				if tbl>>(*flag&7)&1 != 0 {
					return target, nil
				}
				return next, nil
			}).TermUop(arch.UopBcc, int(tbl), 0, 0, target)
		}
		return nil
	case 2: // arithmetic
		rd := int(w >> 25 & 31)
		d := dst(rd)
		op3 := int(w >> 19 & 63)
		rs1 := int(w >> 14 & 31)
		alu := func(x func(a, b uint32) uint32) *arch.DecodedInsn {
			return mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				b := simm
				if rs2 >= 0 {
					b = regs[rs2]
				}
				arch.RegWrite(regs, d, x(regs[rs1], b))
				return next, nil
			})
		}
		switch op3 {
		case Op3Add:
			if r2 := rs2; r2 >= 0 {
				return mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
					arch.RegWrite(regs, d, regs[rs1]+regs[r2])
					return next, nil
				}).AluUop(arch.UopAdd, d, rs1, r2, 0)
			}
			return mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				arch.RegWrite(regs, d, regs[rs1]+simm)
				return next, nil
			}).AluUop(arch.UopAddI, d, rs1, 0, simm)
		case Op3Sub:
			if r2 := rs2; r2 >= 0 {
				return mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
					arch.RegWrite(regs, d, regs[rs1]-regs[r2])
					return next, nil
				}).AluUop(arch.UopSub, d, rs1, r2, 0)
			}
			return mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				arch.RegWrite(regs, d, regs[rs1]-simm)
				return next, nil
			}).AluUop(arch.UopAddI, d, rs1, 0, -simm)
		case Op3And:
			if r2 := rs2; r2 >= 0 {
				return alu(func(a, b uint32) uint32 { return a & b }).AluUop(arch.UopAnd, d, rs1, r2, 0)
			}
			return alu(func(a, b uint32) uint32 { return a & b }).AluUop(arch.UopAndI, d, rs1, 0, simm)
		case Op3Or:
			if r2 := rs2; r2 >= 0 {
				return mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
					arch.RegWrite(regs, d, regs[rs1]|regs[r2])
					return next, nil
				}).AluUop(arch.UopOr, d, rs1, r2, 0)
			}
			return mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				arch.RegWrite(regs, d, regs[rs1]|simm)
				return next, nil
			}).AluUop(arch.UopOrI, d, rs1, 0, simm)
		case Op3Xor:
			if r2 := rs2; r2 >= 0 {
				return alu(func(a, b uint32) uint32 { return a ^ b }).AluUop(arch.UopXor, d, rs1, r2, 0)
			}
			return alu(func(a, b uint32) uint32 { return a ^ b }).AluUop(arch.UopXorI, d, rs1, 0, simm)
		case Op3SMul:
			if r2 := rs2; r2 >= 0 {
				return alu(func(a, b uint32) uint32 { return uint32(int32(a) * int32(b)) }).AluUop(arch.UopMul, d, rs1, r2, 0)
			}
			return alu(func(a, b uint32) uint32 { return uint32(int32(a) * int32(b)) })
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
			if r2 := rs2; r2 >= 0 {
				return alu(func(a, b uint32) uint32 { return a << (b & 31) }).AluUop(arch.UopShl, d, rs1, r2, 0)
			}
			return alu(func(a, b uint32) uint32 { return a << (b & 31) }).AluUop(arch.UopShlI, d, rs1, 0, simm&31)
		case Op3Srl:
			if r2 := rs2; r2 >= 0 {
				return alu(func(a, b uint32) uint32 { return a >> (b & 31) }).AluUop(arch.UopShr, d, rs1, r2, 0)
			}
			return alu(func(a, b uint32) uint32 { return a >> (b & 31) }).AluUop(arch.UopShrI, d, rs1, 0, simm&31)
		case Op3Sra:
			if r2 := rs2; r2 >= 0 {
				return alu(func(a, b uint32) uint32 { return uint32(int32(a) >> (b & 31)) }).AluUop(arch.UopSar, d, rs1, r2, 0)
			}
			return alu(func(a, b uint32) uint32 { return uint32(int32(a) >> (b & 31)) }).AluUop(arch.UopSarI, d, rs1, 0, simm&31)
		case Op3SubCC:
			if r2 := rs2; r2 >= 0 {
				di := mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
					a, b := regs[rs1], regs[r2]
					arch.RegWrite(regs, d, a-b)
					*flag = subFlags(a, b)
					return next, nil
				})
				if d < 0 {
					return di.FlagUop(arch.UopCmp, rs1, r2, 0)
				}
				return di.AluUop(arch.UopSubCC, d, rs1, r2, 0)
			}
			di := mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				a := regs[rs1]
				arch.RegWrite(regs, d, a-simm)
				*flag = subFlags(a, simm)
				return next, nil
			})
			if d < 0 {
				return di.FlagUop(arch.UopCmpI, rs1, 0, simm)
			}
			return di.AluUop(arch.UopSubCCI, d, rs1, 0, simm)
		case Op3Jmpl:
			if r2 := rs2; r2 >= 0 {
				di := mkT(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
					t := regs[rs1] + regs[r2]
					arch.RegWrite(regs, d, pc)
					return t, nil
				})
				if d < 0 { // link discarded: plain indirect jump
					return di.TermUop(arch.UopJmpInd, 0, rs1, r2, 0)
				}
				return di // linked register-register jmpl is rare; keep the closure
			}
			di := mkT(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				t := regs[rs1] + simm
				arch.RegWrite(regs, d, pc)
				return t, nil
			})
			if d < 0 { // ret / retl and friends: link discarded
				return di.TermUop(arch.UopJmpInd, 0, rs1, 0, simm)
			}
			return di.TermUop(arch.UopJmpIndL, d, rs1, 0, simm)
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
		load := func(size, signed int) *arch.DecodedInsn {
			d := dst(rd)
			uop := arch.UopLd32
			switch {
			case size == 1 && signed != 0:
				uop = arch.UopLd8S
			case size == 1:
				uop = arch.UopLd8U
			case size == 2 && signed != 0:
				uop = arch.UopLd16S
			case size == 2:
				uop = arch.UopLd16U
			}
			if r2 := rs2; r2 >= 0 {
				return mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
					v, f := p.Load(regs[rs1]+regs[r2], size)
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
				}).MemUop(uop, d, rs1, r2, 0)
			}
			return mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				v, f := p.Load(regs[rs1]+simm, size)
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
			}).MemUop(uop, d, rs1, 0, simm)
		}
		store := func(size int) *arch.DecodedInsn {
			uop := arch.UopSt32
			switch size {
			case 1:
				uop = arch.UopSt8
			case 2:
				uop = arch.UopSt16
			}
			if r2 := rs2; r2 >= 0 {
				return mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
					if f := p.Store(regs[rs1]+regs[r2], size, regs[rd]); f != nil {
						return 0, f
					}
					return next, nil
				}).MemUop(uop, rd, rs1, r2, 0)
			}
			return mk(func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				if f := p.Store(regs[rs1]+simm, size, regs[rd]); f != nil {
					return 0, f
				}
				return next, nil
			}).MemUop(uop, rd, rs1, 0, simm)
		}
		switch op3 {
		case Op3Ld:
			return load(4, 0)
		case Op3Ldub:
			return load(1, 0)
		case Op3Lduh:
			return load(2, 0)
		case Op3Ldsb:
			return load(1, 1)
		case Op3Ldsh:
			return load(2, 2)
		case Op3St:
			return store(4)
		case Op3Stb:
			return store(1)
		case Op3Sth:
			return store(2)
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
