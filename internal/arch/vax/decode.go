package vax

import (
	"math"

	"ldb/internal/arch"
)

func sigill(pc uint32) *arch.Fault {
	return &arch.Fault{Kind: arch.FaultSignal, Sig: arch.SigIll, PC: pc}
}

// Operand kinds.
const (
	oReg = iota
	oFReg
	oImm
	oMem
)

// copnd is a compiled operand specifier: the addressing-mode dispatch
// is resolved once at decode time. Register, float-register, immediate,
// and absolute operands are fully static; the register-relative modes
// compile to a small effective-address closure over the register file
// (adr), which also carries any deferred register side effect —
// autoincrement writes back when the handler takes the address, in
// operand order. Evaluating an operand therefore never touches memory
// and never faults; only the read or write through it can.
type copnd struct {
	kind int    // oReg, oFReg, oImm, oMem
	reg  int    // oReg/oFReg register number
	imm  uint32 // oImm value, or the oMem absolute address when adr is nil
	adr  func(regs []uint32) uint32
}

// addr returns the operand's effective address, applying any deferred
// register side effect (autoincrement). Callers evaluate it exactly
// once per operand evaluation, and never after an earlier operand has
// faulted, so a faulting instruction runs no later operand's side
// effect.
func (o *copnd) addr(regs []uint32) uint32 {
	if o.adr != nil {
		return o.adr(regs)
	}
	return o.imm
}

// readOp reads size bytes through a compiled operand: registers read
// low bytes, immediates yield their value, memory may fault, and a
// float-register operand is SIGILL.
func readOp(p arch.Proc, regs []uint32, o *copnd, size int, pc uint32) (uint32, *arch.Fault) {
	switch o.kind {
	case oReg:
		v := regs[o.reg]
		switch size {
		case 1:
			return v & 0xff, nil
		case 2:
			return v & 0xffff, nil
		}
		return v, nil
	case oImm:
		return o.imm, nil
	case oMem:
		return p.Load(o.addr(regs), size)
	default:
		return 0, sigill(pc)
	}
}

// writeOp writes size bytes through a compiled operand: register
// writes merge into the low bytes, and writes to immediates or float
// registers are SIGILL.
func writeOp(p arch.Proc, regs []uint32, o *copnd, size int, v uint32, pc uint32) *arch.Fault {
	switch o.kind {
	case oReg:
		old := regs[o.reg]
		switch size {
		case 1:
			v = old&^0xff | v&0xff
		case 2:
			v = old&^0xffff | v&0xffff
		}
		regs[o.reg] = v
		return nil
	case oMem:
		return p.Store(o.addr(regs), size, v)
	default:
		return sigill(pc)
	}
}

// readFOp and writeFOp are the float counterparts of readOp and
// writeOp.
func readFOp(p arch.Proc, regs []uint32, o *copnd, size int, pc uint32) (float64, *arch.Fault) {
	switch o.kind {
	case oFReg:
		return p.FReg(o.reg), nil
	case oMem:
		return p.LoadFloat(o.addr(regs), size)
	default:
		return 0, sigill(pc)
	}
}

func writeFOp(p arch.Proc, regs []uint32, o *copnd, size int, v float64, pc uint32) *arch.Fault {
	switch o.kind {
	case oFReg:
		if size == 4 {
			v = float64(float32(v))
		}
		p.SetFReg(o.reg, v)
		return nil
	case oMem:
		return p.StoreFloat(o.addr(regs), size, v)
	default:
		return sigill(pc)
	}
}

// dec walks the instruction bytes at decode time. ok goes false when
// the instruction runs off the segment image or uses a reserved
// addressing mode; Decode then returns nil.
type dec struct {
	code []byte
	at   int
	ok   bool
}

func (d *dec) u8() uint32 {
	if d.at+1 > len(d.code) {
		d.ok = false
		return 0
	}
	v := d.code[d.at]
	d.at++
	return uint32(v)
}

func (d *dec) u16() uint32 {
	if d.at+2 > len(d.code) {
		d.ok = false
		return 0
	}
	v := uint32(d.code[d.at]) | uint32(d.code[d.at+1])<<8
	d.at += 2
	return v
}

func (d *dec) u32() uint32 {
	if d.at+4 > len(d.code) {
		d.ok = false
		return 0
	}
	v := uint32(d.code[d.at]) | uint32(d.code[d.at+1])<<8 |
		uint32(d.code[d.at+2])<<16 | uint32(d.code[d.at+3])<<24
	d.at += 4
	return v
}

// spec parses one operand specifier and compiles it to a copnd.
func (d *dec) spec() copnd {
	b := d.u8()
	mode := int(b >> 4)
	reg := int(b & 15)
	switch mode {
	case ModeReg:
		return copnd{kind: oReg, reg: reg}
	case ModeFReg:
		return copnd{kind: oFReg, reg: reg & 7}
	case ModeDefer:
		return copnd{kind: oMem, adr: func(regs []uint32) uint32 { return regs[reg] }}
	case ModeAuto:
		if reg == PCr { // immediate long
			return copnd{kind: oImm, imm: d.u32()}
		}
		return copnd{kind: oMem, adr: func(regs []uint32) uint32 {
			a := regs[reg]
			regs[reg] = a + 4
			return a
		}}
	case ModeAbs:
		return copnd{kind: oMem, imm: d.u32()}
	case ModeBDisp, ModeWDisp, ModeLDisp:
		var disp uint32
		switch mode {
		case ModeBDisp:
			disp = uint32(int32(int8(d.u8())))
		case ModeWDisp:
			disp = uint32(int32(int16(d.u16())))
		default:
			disp = d.u32()
		}
		return copnd{kind: oMem, adr: func(regs []uint32) uint32 { return regs[reg] + disp }}
	default:
		d.ok = false // reserved addressing mode
		return copnd{}
	}
}

// Decode implements arch.Arch. Opcode dispatch, operand-specifier
// parsing, and addressing-mode dispatch all happen once here; the
// handlers evaluate compiled operands in operand order and stop at the
// first fault: a faulting operand stops later operands from being
// evaluated (so their register side effects never run), while the few
// instructions that act after a fault — tstl/cmpl/cmpd set their flags
// from zero values, divl3 checks the divisor — order it explicitly.
// Control-transfer instructions carry arch.InsnTerm for the superblock
// builder; everything else is guaranteed to fall through to pc+Len.
func (v *Vax) Decode(code []byte, off int, pc uint32) *arch.DecodedInsn {
	if off < 0 || off >= len(code) {
		return nil
	}
	d := &dec{code: code, at: off + 1, ok: true}
	opc := code[off]

	length := func() uint32 { return uint32(d.at - off) }
	mk := func(term arch.InsnFlags, x func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault)) *arch.DecodedInsn {
		if !d.ok {
			return nil
		}
		return &arch.DecodedInsn{Len: length(), Exec: x, Flags: term}
	}
	// branch16 predecodes a conditional branch: the flags live in bits
	// 0-2, so the condition compiles to an 8-entry truth table indexed
	// by flag&7, and both successor pcs are computed here.
	branch16 := func(cond func(z, n, cu bool) bool) *arch.DecodedInsn {
		disp := uint32(int32(int16(d.u16())))
		if !d.ok {
			return nil
		}
		target := pc + 3 + disp
		next := pc + 3
		var tbl uint32
		for fl := uint32(0); fl < 8; fl++ {
			if cond(fl&FlagZ != 0, fl&FlagN != 0, fl&FlagC != 0) {
				tbl |= 1 << fl
			}
		}
		return &arch.DecodedInsn{Len: 3, Flags: arch.InsnTerm, Exec: func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
			if tbl>>(*flag&7)&1 != 0 {
				return target, nil
			}
			return next, nil
		}}
	}

	switch opc {
	case OpNop:
		next := pc + length()
		return mk(0, func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
			return next, nil
		})
	case OpHalt:
		return mk(arch.InsnTerm, func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
			return 0, &arch.Fault{Kind: arch.FaultHalt, PC: pc}
		})
	case OpBpt:
		return mk(arch.InsnTerm, func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
			return 0, &arch.Fault{Kind: arch.FaultSignal, Sig: arch.SigTrap, Code: arch.TrapBreakpoint, PC: pc}
		})
	case OpRsb:
		return mk(arch.InsnTerm, func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
			sp := regs[SP]
			v, f := p.Load(sp, 4)
			if f != nil {
				return 0, f // SP untouched, exactly as pop latches
			}
			regs[SP] = sp + 4
			return v, nil
		})
	case OpBrw:
		return branch16(func(z, n, cu bool) bool { return true })
	case OpBneq:
		return branch16(func(z, n, cu bool) bool { return !z })
	case OpBeql:
		return branch16(func(z, n, cu bool) bool { return z })
	case OpBgtr:
		return branch16(func(z, n, cu bool) bool { return !z && !n })
	case OpBleq:
		return branch16(func(z, n, cu bool) bool { return z || n })
	case OpBgeq:
		return branch16(func(z, n, cu bool) bool { return !n })
	case OpBlss:
		return branch16(func(z, n, cu bool) bool { return n })
	case OpBgtru:
		return branch16(func(z, n, cu bool) bool { return !cu && !z })
	case OpBlequ:
		return branch16(func(z, n, cu bool) bool { return cu || z })
	case OpBgequ:
		return branch16(func(z, n, cu bool) bool { return !cu })
	case OpBlssu:
		return branch16(func(z, n, cu bool) bool { return cu })
	case OpJsb:
		o := d.spec()
		if !d.ok {
			return nil
		}
		ln := length()
		return mk(arch.InsnTerm, func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
			var target uint32
			switch o.kind {
			case oReg:
				target = regs[o.reg]
			case oMem:
				target = o.addr(regs)
			}
			// A faulting push leaves SP decremented.
			sp := regs[SP] - 4
			regs[SP] = sp
			if f := p.Store(sp, 4, pc+ln); f != nil {
				return 0, f
			}
			return target, nil
		})
	case OpJmp:
		o := d.spec()
		return mk(arch.InsnTerm, func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
			switch o.kind {
			case oReg:
				return regs[o.reg], nil
			case oMem:
				return o.addr(regs), nil
			}
			return 0, nil // an immediate operand jumps to address zero
		})
	case OpChmk:
		o := d.spec()
		if !d.ok {
			return nil
		}
		ln := length()
		return mk(arch.InsnTerm, func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
			num, f := readOp(p, regs, &o, 4, pc)
			if f != nil {
				return 0, f
			}
			if num == arch.TrapPause {
				return 0, &arch.Fault{Kind: arch.FaultSignal, Sig: arch.SigTrap, Code: arch.TrapPause, PC: pc, Len: ln}
			}
			p.SetPC(pc + ln)
			return 0, &arch.Fault{Kind: arch.FaultSyscall, Code: int(num), PC: pc}
		})
	case OpPushl:
		o := d.spec()
		next := pc + length()
		return mk(0, func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
			v, f := readOp(p, regs, &o, 4, pc)
			if f != nil {
				return 0, f // a faulting source read leaves SP alone
			}
			sp := regs[SP] - 4
			regs[SP] = sp
			if f := p.Store(sp, 4, v); f != nil {
				return 0, f
			}
			return next, nil
		})
	case OpMovl, OpMovb, OpMovw, OpMovzbl, OpMovzwl, OpCvtbl, OpCvtwl:
		rsize, wsize := 4, 4
		ext := func(v uint32) uint32 { return v }
		switch opc {
		case OpMovb:
			rsize, wsize = 1, 1
		case OpMovw:
			rsize, wsize = 2, 2
		case OpMovzbl:
			rsize = 1
			ext = func(v uint32) uint32 { return v & 0xff }
		case OpMovzwl:
			rsize = 2
			ext = func(v uint32) uint32 { return v & 0xffff }
		case OpCvtbl:
			rsize = 1
			ext = func(v uint32) uint32 { return uint32(int32(int8(v))) }
		case OpCvtwl:
			rsize = 2
			ext = func(v uint32) uint32 { return uint32(int32(int16(v))) }
		}
		src, dst := d.spec(), d.spec()
		next := pc + length()
		return mk(0, func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
			v, f := readOp(p, regs, &src, rsize, pc)
			if f != nil {
				return 0, f // dst is never evaluated after a latched error
			}
			if f := writeOp(p, regs, &dst, wsize, ext(v), pc); f != nil {
				return 0, f
			}
			return next, nil
		})
	case OpTstl:
		o := d.spec()
		next := pc + length()
		return mk(0, func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
			// The flags are set even when the read faults (from the
			// zero value).
			v, f := readOp(p, regs, &o, 4, pc)
			*flag = arch.SubFlags(v, 0)
			if f != nil {
				return 0, f
			}
			return next, nil
		})
	case OpCmpl:
		s1, s2 := d.spec(), d.spec()
		next := pc + length()
		return mk(0, func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
			a, f := readOp(p, regs, &s1, 4, pc)
			var b uint32
			if f == nil {
				b, f = readOp(p, regs, &s2, 4, pc)
			}
			*flag = arch.SubFlags(a, b) // set even on a fault, from zeros
			if f != nil {
				return 0, f
			}
			return next, nil
		})
	case OpAddl2, OpSubl2:
		add := opc == OpAddl2
		src, dst := d.spec(), d.spec()
		next := pc + length()
		return mk(0, func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
			sv, f := readOp(p, regs, &src, 4, pc)
			if f != nil {
				return 0, f
			}
			if !add {
				sv = -sv
			}
			// The destination is evaluated once (its autoincrement must
			// not run twice), then read and written through that address.
			switch dst.kind {
			case oReg:
				regs[dst.reg] += sv
			case oMem:
				a := dst.addr(regs)
				dv, f := p.Load(a, 4)
				if f != nil {
					return 0, f
				}
				if f := p.Store(a, 4, dv+sv); f != nil {
					return 0, f
				}
			default:
				// An immediate destination reads fine and is SIGILL on
				// the write.
				return 0, sigill(pc)
			}
			return next, nil
		})
	case OpAddl3, OpSubl3, OpMull3, OpBisl3, OpBicl3, OpXorl3:
		s1, s2, s3 := d.spec(), d.spec(), d.spec()
		op := func(a, b uint32) uint32 { return b + a }
		switch opc {
		case OpSubl3:
			op = func(a, b uint32) uint32 { return b - a } // dst = src2 - src1
		case OpMull3:
			op = func(a, b uint32) uint32 { return uint32(int32(a) * int32(b)) }
		case OpBisl3:
			op = func(a, b uint32) uint32 { return a | b }
		case OpBicl3:
			op = func(a, b uint32) uint32 { return b &^ a }
		case OpXorl3:
			op = func(a, b uint32) uint32 { return a ^ b }
		}
		next := pc + length()
		return mk(0, func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
			a, f := readOp(p, regs, &s1, 4, pc)
			if f != nil {
				return 0, f
			}
			b, f := readOp(p, regs, &s2, 4, pc)
			if f != nil {
				return 0, f
			}
			if f := writeOp(p, regs, &s3, 4, op(a, b), pc); f != nil {
				return 0, f
			}
			return next, nil
		})
	case OpDivl3:
		s1, s2, s3 := d.spec(), d.spec(), d.spec()
		next := pc + length()
		return mk(0, func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
			a, f := readOp(p, regs, &s1, 4, pc)
			var b uint32
			if f == nil {
				b, f = readOp(p, regs, &s2, 4, pc)
			}
			// The destination's side effects run before the divisor
			// check, and the divide fault wins over an operand fault.
			var da uint32
			if f == nil && s3.kind == oMem {
				da = s3.addr(regs)
			}
			if a == 0 {
				return 0, &arch.Fault{Kind: arch.FaultSignal, Sig: arch.SigFPE, PC: pc}
			}
			if f != nil {
				return 0, f
			}
			r := uint32(int32(b) / int32(a)) // dst = src2 / src1
			switch s3.kind {
			case oReg:
				regs[s3.reg] = r
			case oMem:
				if f := p.Store(da, 4, r); f != nil {
					return 0, f
				}
			default:
				return 0, sigill(pc)
			}
			return next, nil
		})
	case OpMcoml:
		src, dst := d.spec(), d.spec()
		next := pc + length()
		return mk(0, func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
			v, f := readOp(p, regs, &src, 4, pc)
			if f != nil {
				return 0, f
			}
			if f := writeOp(p, regs, &dst, 4, ^v, pc); f != nil {
				return 0, f
			}
			return next, nil
		})
	case OpAshl, OpLsrl:
		ash := opc == OpAshl
		s1, s2, s3 := d.spec(), d.spec(), d.spec()
		next := pc + length()
		return mk(0, func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
			cv, f := readOp(p, regs, &s1, 4, pc)
			if f != nil {
				return 0, f
			}
			src, f := readOp(p, regs, &s2, 4, pc)
			if f != nil {
				return 0, f
			}
			cnt := int32(cv)
			var r uint32
			if ash {
				if cnt >= 0 {
					r = src << (uint32(cnt) & 31)
				} else {
					r = uint32(int32(src) >> (uint32(-cnt) & 31))
				}
			} else {
				r = src >> (uint32(cnt) & 31)
			}
			if f := writeOp(p, regs, &s3, 4, r, pc); f != nil {
				return 0, f
			}
			return next, nil
		})
	case OpMovd, OpMovf:
		size := 8
		if opc == OpMovf {
			size = 4
		}
		src, dst := d.spec(), d.spec()
		next := pc + length()
		return mk(0, func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
			v, f := readFOp(p, regs, &src, size, pc)
			if f != nil {
				return 0, f
			}
			if f := writeFOp(p, regs, &dst, size, v, pc); f != nil {
				return 0, f
			}
			return next, nil
		})
	case OpAddd3, OpSubd3, OpMuld3, OpDivd3:
		s1, s2, s3 := d.spec(), d.spec(), d.spec()
		op := func(a, b float64) float64 { return b + a }
		switch opc {
		case OpSubd3:
			op = func(a, b float64) float64 { return b - a }
		case OpMuld3:
			op = func(a, b float64) float64 { return b * a }
		case OpDivd3:
			op = func(a, b float64) float64 { return b / a }
		}
		next := pc + length()
		return mk(0, func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
			a, f := readFOp(p, regs, &s1, 8, pc)
			if f != nil {
				return 0, f
			}
			b, f := readFOp(p, regs, &s2, 8, pc)
			if f != nil {
				return 0, f
			}
			if f := writeFOp(p, regs, &s3, 8, op(a, b), pc); f != nil {
				return 0, f
			}
			return next, nil
		})
	case OpMnegd:
		src, dst := d.spec(), d.spec()
		next := pc + length()
		return mk(0, func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
			v, f := readFOp(p, regs, &src, 8, pc)
			if f != nil {
				return 0, f
			}
			if f := writeFOp(p, regs, &dst, 8, -v, pc); f != nil {
				return 0, f
			}
			return next, nil
		})
	case OpCmpd:
		s1, s2 := d.spec(), d.spec()
		next := pc + length()
		return mk(0, func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
			a, f := readFOp(p, regs, &s1, 8, pc)
			var b float64
			if f == nil {
				b, f = readFOp(p, regs, &s2, 8, pc)
			}
			var fl uint32
			if a == b {
				fl |= FlagZ
			}
			if a < b {
				fl |= FlagN | FlagC
			}
			*flag = fl // set even on a fault, from zeros
			if f != nil {
				return 0, f
			}
			return next, nil
		})
	case OpCvtld:
		src, dst := d.spec(), d.spec()
		next := pc + length()
		return mk(0, func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
			v, f := readOp(p, regs, &src, 4, pc)
			if f != nil {
				return 0, f
			}
			if f := writeFOp(p, regs, &dst, 8, float64(int32(v)), pc); f != nil {
				return 0, f
			}
			return next, nil
		})
	case OpCvtdl:
		src, dst := d.spec(), d.spec()
		next := pc + length()
		return mk(0, func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault) {
			v, f := readFOp(p, regs, &src, 8, pc)
			if f != nil {
				return 0, f
			}
			if f := writeOp(p, regs, &dst, 4, uint32(int32(math.Trunc(v))), pc); f != nil {
				return 0, f
			}
			return next, nil
		})
	}
	return nil
}
