package m68k

import (
	"math"

	"ldb/internal/arch"
)

func compareFlags(signedLess, unsignedLess, equal bool) uint32 {
	var f uint32
	if equal {
		f |= FlagZ
	}
	if signedLess {
		f |= FlagN
	}
	if unsignedLess {
		f |= FlagC
	}
	return f
}

func condTrue(cond int, flag uint32) bool {
	z := flag&FlagZ != 0
	n := flag&FlagN != 0
	c := flag&FlagC != 0
	switch cond {
	case CcRA:
		return true
	case CcEQ:
		return z
	case CcNE:
		return !z
	case CcLT:
		return n
	case CcGE:
		return !n
	case CcGT:
		return !z && !n
	case CcLE:
		return z || n
	case CcCS:
		return c
	case CcCC:
		return !c
	case CcHI:
		return !c && !z
	case CcLS:
		return c || z
	}
	return false
}

// push and pop are the decoded handlers' stack helpers. A push whose
// store faults leaves SP decremented; a pop whose load faults leaves SP
// alone.
func push(p arch.Proc, v uint32) *arch.Fault {
	sp := p.Reg(SPr) - 4
	p.SetReg(SPr, sp)
	return p.Store(sp, 4, v)
}

func pop(p arch.Proc) (uint32, *arch.Fault) {
	sp := p.Reg(SPr)
	v, f := p.Load(sp, 4)
	if f != nil {
		return 0, f
	}
	p.SetReg(SPr, sp+4)
	return v, nil
}

// Decode implements arch.Arch. 68020 instructions are one 16-bit
// word plus zero, one, or two extension words; the extensions are read
// from the segment image here, so Len records the true byte length and
// the handlers never re-fetch them. Register fields are 4 bits and the
// register file is 16 long, so the handlers index regs directly.
// Moves, register arithmetic, compares, and Bcc predecode to
// micro-ops; stack operations, displacement loads and stores, divides,
// traps, and floats to closures. Words that do not decode, at an odd
// offset, or whose extensions run off the segment return nil, which
// the simulator reports as SIGILL.
func (m *M68k) Decode(code []byte, off int, pc uint32) *arch.DecodedInsn {
	if off < 0 || off+2 > len(code) || off&1 != 0 {
		return nil
	}
	ord := m.Order()
	w := ord.Uint16(code[off : off+2])

	ext16 := func() (int16, bool) {
		if off+4 > len(code) {
			return 0, false
		}
		return int16(ord.Uint16(code[off+2 : off+4])), true
	}
	ext32 := func() (uint32, bool) {
		if off+6 > len(code) {
			return 0, false
		}
		return ord.Uint32(code[off+2 : off+6]), true
	}
	done := func(n uint32, x func(p arch.Proc, regs []uint32)) *arch.DecodedInsn {
		next := pc + n
		return &arch.DecodedInsn{Len: n, Exec: func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
			x(p, regs)
			return next, nil
		}}
	}
	raw := func(n uint32, x func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault)) *arch.DecodedInsn {
		return &arch.DecodedInsn{Len: n, Exec: x}
	}
	// rawT marks control-transfer and trapping closures (trap, rts,
	// jsr) that may not fall through to pc+Len; superblock formation
	// ends a fused run at the first one.
	rawT := func(n uint32, x func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault)) *arch.DecodedInsn {
		return &arch.DecodedInsn{Len: n, Exec: x, Flags: arch.InsnTerm}
	}
	// u starts an n-byte instruction that states its semantics as a
	// micro-op.
	u := func(n uint32) *arch.DecodedInsn { return &arch.DecodedInsn{Len: n} }

	minor := int(w >> 8 & 15)
	rx := int(w >> 4 & 15)
	ry := int(w & 15)

	switch w >> 12 {
	case 1: // moves
		switch minor {
		case MvReg:
			return u(2).AluUop(arch.UopAddI, rx, ry, 0, 0)
		case MvImm, MvLea:
			v, ok := ext32()
			if !ok {
				return nil
			}
			return u(6).AluUop(arch.UopConst, rx, 0, 0, v)
		case MvQ:
			d, ok := ext16()
			if !ok {
				return nil
			}
			return u(4).AluUop(arch.UopConst, rx, 0, 0, uint32(int32(d)))
		case MvLeaD:
			d, ok := ext16()
			if !ok {
				return nil
			}
			return u(4).AluUop(arch.UopAddI, rx, ry, 0, uint32(int32(d)))
		case MvPush:
			return raw(2, func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				if f := push(p, regs[rx]); f != nil {
					return 0, f
				}
				return pc + 2, nil
			})
		case MvPop:
			return raw(2, func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				v, f := pop(p)
				if f != nil {
					return 0, f
				}
				regs[rx] = v
				return pc + 2, nil
			})
		case MvLoadL, MvLoadB, MvLoadW, MvLoadBu, MvLoadWu:
			d, ok := ext16()
			if !ok {
				return nil
			}
			disp := uint32(int32(d))
			size := 4
			switch minor {
			case MvLoadB, MvLoadBu:
				size = 1
			case MvLoadW, MvLoadWu:
				size = 2
			}
			signed := 0
			switch minor {
			case MvLoadB:
				signed = 1
			case MvLoadW:
				signed = 2
			}
			return raw(4, func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				v, f := p.Load(regs[ry]+disp, size)
				if f != nil {
					return 0, f
				}
				switch signed {
				case 1:
					v = uint32(int32(int8(v)))
				case 2:
					v = uint32(int32(int16(v)))
				}
				regs[rx] = v
				return pc + 4, nil
			})
		case MvStoreL, MvStoreB, MvStoreW:
			d, ok := ext16()
			if !ok {
				return nil
			}
			disp := uint32(int32(d))
			size := 4
			switch minor {
			case MvStoreB:
				size = 1
			case MvStoreW:
				size = 2
			}
			return raw(4, func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				if f := p.Store(regs[ry]+disp, size, regs[rx]); f != nil {
					return 0, f
				}
				return pc + 4, nil
			})
		}
		return nil
	case 2: // arithmetic
		switch minor {
		case ArAdd:
			return u(2).AluUop(arch.UopAdd, rx, rx, ry, 0)
		case ArSub:
			return u(2).AluUop(arch.UopSub, rx, rx, ry, 0)
		case ArMul:
			// The low 32 bits of a product are the same signed or unsigned,
			// so the generic unsigned UopMul matches.
			return u(2).AluUop(arch.UopMul, rx, rx, ry, 0)
		case ArDiv:
			return raw(2, func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				b := regs[ry]
				if b == 0 {
					return 0, &arch.Fault{Kind: arch.FaultSignal, Sig: arch.SigFPE, PC: pc}
				}
				regs[rx] = uint32(int32(regs[rx]) / int32(b))
				return pc + 2, nil
			})
		case ArAnd:
			return u(2).AluUop(arch.UopAnd, rx, rx, ry, 0)
		case ArOr:
			return u(2).AluUop(arch.UopOr, rx, rx, ry, 0)
		case ArXor:
			return u(2).AluUop(arch.UopXor, rx, rx, ry, 0)
		case ArLsl:
			return u(2).AluUop(arch.UopShl, rx, rx, ry, 0)
		case ArLsr:
			return u(2).AluUop(arch.UopShr, rx, rx, ry, 0)
		case ArAsr:
			return u(2).AluUop(arch.UopSar, rx, rx, ry, 0)
		case ArNeg:
			return done(2, func(p arch.Proc, regs []uint32) { regs[rx] = -regs[rx] })
		case ArNot:
			// ^a == ^(a|a); there is no hardwired-zero register to pair
			// with, so NOT compiles to a self-NOR.
			return u(2).AluUop(arch.UopNor, rx, rx, rx, 0)
		case ArCmp:
			// FlagZ, FlagN, and FlagC are the equal, signed-less, and
			// unsigned-less bits of arch.SubFlags (see condTrue), so the
			// generic compare micro-op sets the 68020's flags.
			return u(2).FlagUop(arch.UopCmp, rx, ry, 0)
		case ArAddI:
			d, ok := ext16()
			if !ok {
				return nil
			}
			return u(4).AluUop(arch.UopAddI, rx, rx, 0, uint32(int32(d)))
		}
		return nil
	case 4: // the real 68000 encodings
		switch {
		case w&0xfff0 == 0x4e40: // trap #n
			n := int(w & 15)
			switch n {
			case 1: // syscall: number in d1
				return rawT(2, func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
					p.SetPC(pc + 2)
					return 0, &arch.Fault{Kind: arch.FaultSyscall, Code: int(regs[D1]), PC: pc}
				})
			case 14: // pause
				return rawT(2, func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
					return 0, &arch.Fault{Kind: arch.FaultSignal, Sig: arch.SigTrap, Code: arch.TrapPause, PC: pc, Len: 2}
				})
			default:
				return rawT(2, func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
					return 0, &arch.Fault{Kind: arch.FaultSignal, Sig: arch.SigTrap, Code: n, PC: pc, Len: 2}
				})
			}
		case w == 0x4e71: // nop
			return done(2, func(arch.Proc, []uint32) {})
		case w == 0x4e75: // rts
			return rawT(2, func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				v, f := pop(p)
				if f != nil {
					return 0, f
				}
				return v, nil
			})
		case w&0xfff8 == 0x4e50: // link aN, #disp
			an := A0 + int(w&7)
			d, ok := ext16()
			if !ok {
				return nil
			}
			disp := uint32(int32(d))
			return raw(4, func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				if f := push(p, regs[an]); f != nil {
					return 0, f
				}
				regs[an] = regs[SPr]
				regs[SPr] += disp
				return pc + 4, nil
			})
		case w&0xfff8 == 0x4e58: // unlk aN
			an := A0 + int(w&7)
			return raw(2, func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				regs[SPr] = regs[an]
				v, f := pop(p)
				if f != nil {
					return 0, f
				}
				regs[an] = v
				return pc + 2, nil
			})
		case w == 0x4eb9: // jsr abs32
			target, ok := ext32()
			if !ok {
				return nil
			}
			return rawT(6, func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				if f := push(p, pc+6); f != nil {
					return 0, f
				}
				return target, nil
			})
		case w&0xfff8 == 0x4e90: // jsr (aN)
			an := A0 + int(w&7)
			return rawT(2, func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				if f := push(p, pc+2); f != nil {
					return 0, f
				}
				return regs[an], nil
			})
		}
		return nil
	case 6: // Bcc with 16-bit displacement
		cond := minor
		d, ok := ext16()
		if !ok {
			return nil
		}
		// The displacement is relative to the end of the extension word
		// (pc+4), matching Asm.Finish.
		target := pc + 4 + uint32(int32(d))
		// Compile the condition to a truth table over the three flag bits
		// (the same NZC encoding arch.SubFlags produces), so the fused
		// engine tests the branch with one shift instead of re-evaluating
		// the condition code.
		var tbl uint32
		for fl := uint32(0); fl < 8; fl++ {
			if condTrue(cond, fl) {
				tbl |= 1 << fl
			}
		}
		return u(4).TermUop(arch.UopBcc, int(tbl), 0, 0, target)
	case 0xf: // floats
		fx, fy := rx&7, ry
		switch minor {
		case FAdd:
			return done(2, func(p arch.Proc, regs []uint32) { p.SetFReg(fx, p.FReg(fx)+p.FReg(fy&7)) })
		case FSub:
			return done(2, func(p arch.Proc, regs []uint32) { p.SetFReg(fx, p.FReg(fx)-p.FReg(fy&7)) })
		case FMul:
			return done(2, func(p arch.Proc, regs []uint32) { p.SetFReg(fx, p.FReg(fx)*p.FReg(fy&7)) })
		case FDiv:
			return done(2, func(p arch.Proc, regs []uint32) { p.SetFReg(fx, p.FReg(fx)/p.FReg(fy&7)) })
		case FNeg:
			return done(2, func(p arch.Proc, regs []uint32) { p.SetFReg(fx, -p.FReg(fx)) })
		case FMove:
			return done(2, func(p arch.Proc, regs []uint32) { p.SetFReg(fx, p.FReg(fy&7)) })
		case FCmp:
			return done(2, func(p arch.Proc, regs []uint32) {
				a, b := p.FReg(fx), p.FReg(fy&7)
				p.SetFlag(compareFlags(a < b, a < b, a == b))
			})
		case FFromI:
			return done(2, func(p arch.Proc, regs []uint32) { p.SetFReg(fx, float64(int32(regs[fy]))) })
		case FToI:
			return done(2, func(p arch.Proc, regs []uint32) {
				regs[rx] = uint32(int32(math.Trunc(p.FReg(fy & 7))))
			})
		case FLoadS, FLoadD, FLoadX:
			d, ok := ext16()
			if !ok {
				return nil
			}
			disp := uint32(int32(d))
			size := 4
			if minor == FLoadD {
				size = 8
			} else if minor == FLoadX {
				size = 10
			}
			return raw(4, func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				v, f := p.LoadFloat(regs[fy]+disp, size)
				if f != nil {
					return 0, f
				}
				p.SetFReg(fx, v)
				return pc + 4, nil
			})
		case FStoreS, FStoreD, FStoreX:
			d, ok := ext16()
			if !ok {
				return nil
			}
			disp := uint32(int32(d))
			size := 4
			if minor == FStoreD {
				size = 8
			} else if minor == FStoreX {
				size = 10
			}
			return raw(4, func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
				if f := p.StoreFloat(regs[fy]+disp, size, p.FReg(fx)); f != nil {
					return 0, f
				}
				return pc + 4, nil
			})
		}
		return nil
	}
	return nil
}
