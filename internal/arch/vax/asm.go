package vax

import (
	"encoding/binary"
	"fmt"

	"ldb/internal/arch"
)

// Opcodes (real VAX values where iconic).
const (
	OpHalt  = 0x00
	OpNop   = 0x01
	OpBpt   = 0x03
	OpRsb   = 0x05
	OpBrw   = 0x31 // word displacement
	OpBneq  = 0x12
	OpBeql  = 0x13
	OpBgtr  = 0x14
	OpBleq  = 0x15
	OpJsb   = 0x16
	OpJmp   = 0x17
	OpBgeq  = 0x18
	OpBlss  = 0x19
	OpBgtru = 0x1a
	OpBlequ = 0x1b
	OpBgequ = 0x1e
	OpBlssu = 0x1f

	OpCvtwl  = 0x32
	OpMovzwl = 0x3c
	OpAshl   = 0x78 // ashl count, src, dst (negative count = arithmetic right)
	OpLsrl   = 0x79 // custom: logical shift right count, src, dst
	OpMovb   = 0x90
	OpCvtbl  = 0x98
	OpMovzbl = 0x9a
	OpMovw   = 0xb0
	OpChmk   = 0xbc // one operand: the syscall number
	OpAddl2  = 0xc0
	OpAddl3  = 0xc1
	OpSubl2  = 0xc2
	OpSubl3  = 0xc3
	OpMull3  = 0xc5
	OpDivl3  = 0xc7
	OpBisl3  = 0xc9 // or
	OpBicl3  = 0xcb // dst = src2 AND NOT src1
	OpXorl3  = 0xcd
	OpMcoml  = 0xd2 // complement
	OpMovl   = 0xd0
	OpCmpl   = 0xd1
	OpTstl   = 0xd5
	OpPushl  = 0xdd

	// Floating (IEEE here; see the package comment).
	OpMovf  = 0x50 // single-precision memory ↔ float register
	OpAddd3 = 0x61
	OpSubd3 = 0x63
	OpMuld3 = 0x65
	OpDivd3 = 0x67
	OpMovd  = 0x70
	OpCmpd  = 0x71
	OpCvtdl = 0x6a // double → int (truncate)
	OpCvtld = 0x6e // int → double
	OpMnegd = 0x72
)

// Operand specifier modes.
const (
	ModeFReg  = 0x4 // custom: float register
	ModeReg   = 0x5 // rN
	ModeDefer = 0x6 // (rN)
	ModeAuto  = 0x8 // (rN)+; 0x8F = immediate long
	ModeAbs   = 0x9 // 0x9F = absolute long address
	ModeBDisp = 0xa // byte displacement (rN)
	ModeWDisp = 0xc // word displacement (rN)
	ModeLDisp = 0xe // long displacement (rN)
)

// Flag bits (psl condition codes, simplified): the equal, signed-less,
// and unsigned-less bits arch.SubFlags computes.
const (
	FlagZ = 1 << 0
	FlagN = 1 << 1
	FlagC = 1 << 2
)

// Operand is an assembly-time operand.
type Operand struct {
	Mode int
	Reg  int
	Disp int32
	Imm  uint32
	Sym  string // with ModeAbs or immediate relocation
	Add  int64
}

// Rn names a register operand.
func Rn(r int) Operand { return Operand{Mode: ModeReg, Reg: r} }

// Fn names a float-register operand.
func Fn(r int) Operand { return Operand{Mode: ModeFReg, Reg: r} }

// Deferred names (rN).
func Deferred(r int) Operand { return Operand{Mode: ModeDefer, Reg: r} }

// ImmL names an immediate long.
func ImmL(v uint32) Operand { return Operand{Mode: ModeAuto, Reg: PCr, Imm: v} }

// ImmSym names an immediate long holding a symbol address.
func ImmSym(sym string, add int64) Operand {
	return Operand{Mode: ModeAuto, Reg: PCr, Sym: sym, Add: add}
}

// AbsSym names an absolute-address operand (for jsb/jmp).
func AbsSym(sym string, add int64) Operand {
	return Operand{Mode: ModeAbs, Reg: PCr, Sym: sym, Add: add}
}

// Disp names disp(rN) with a word displacement.
func Disp(r int, d int32) Operand { return Operand{Mode: ModeWDisp, Reg: r, Disp: d} }

// Pop names (sp)+.
func Pop() Operand { return Operand{Mode: ModeAuto, Reg: SP} }

type fixup struct {
	off   int
	label string
}

// Asm assembles VAX instructions.
type Asm struct {
	n      int // instructions emitted
	buf    []byte
	relocs []arch.Reloc
	labels map[string]int
	fixes  []fixup
}

// NewAsm returns a fresh assembler.
func NewAsm() *Asm { return &Asm{labels: make(map[string]int)} }

// Off returns the current offset.
func (a *Asm) Off() int { return len(a.buf) }

// Label binds name to the current offset.
func (a *Asm) Label(name string) { a.labels[name] = len(a.buf) }

func (a *Asm) b(v byte)     { a.buf = append(a.buf, v) }
func (a *Asm) w16(v uint16) { a.buf = append(a.buf, byte(v), byte(v>>8)) }
func (a *Asm) w32(v uint32) {
	a.buf = append(a.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func (a *Asm) operand(o Operand) {
	a.b(byte(o.Mode<<4 | o.Reg&15))
	switch o.Mode {
	case ModeReg, ModeFReg, ModeDefer:
	case ModeAuto:
		if o.Reg == PCr { // immediate
			if o.Sym != "" {
				a.relocs = append(a.relocs, arch.Reloc{Off: len(a.buf), Kind: arch.RelAbs32, Sym: o.Sym, Add: o.Add})
			}
			a.w32(o.Imm)
		}
	case ModeAbs:
		if o.Sym != "" {
			a.relocs = append(a.relocs, arch.Reloc{Off: len(a.buf), Kind: arch.RelAbs32, Sym: o.Sym, Add: o.Add})
		}
		a.w32(o.Imm)
	case ModeBDisp:
		a.b(byte(int8(o.Disp)))
	case ModeWDisp:
		a.w16(uint16(int16(o.Disp)))
	case ModeLDisp:
		a.w32(uint32(o.Disp))
	}
}

// Op emits an opcode with its operands.
func (a *Asm) Op(opcode byte, operands ...Operand) {
	a.n++
	a.b(opcode)
	for _, o := range operands {
		a.operand(o)
	}
}

// Branch emits a conditional (or brw) branch to a local label with a
// word displacement.
func (a *Asm) Branch(opcode byte, label string) {
	a.n++
	a.b(opcode)
	a.fixes = append(a.fixes, fixup{off: len(a.buf), label: label})
	a.w16(0)
}

// Nop emits the one-byte nop.
func (a *Asm) Nop() {
	a.n++
	a.b(OpNop)
}

// Bpt emits the one-byte breakpoint.
func (a *Asm) Bpt() {
	a.n++
	a.b(OpBpt)
}

// Chmk emits a system call with an immediate number.
func (a *Asm) Chmk(num uint32) { a.Op(OpChmk, ImmL(num)) }

// Jsb emits a call to a global symbol.
func (a *Asm) Jsb(sym string) { a.Op(OpJsb, AbsSym(sym, 0)) }

// Rsb emits the return.
func (a *Asm) Rsb() {
	a.n++
	a.b(OpRsb)
}

// MoveImm emits movl #imm, rd.
func (a *Asm) MoveImm(rd int, v int32) { a.Op(OpMovl, ImmL(uint32(v)), Rn(rd)) }

// Finish resolves branches and returns code plus relocations.
func (a *Asm) Finish() ([]byte, []arch.Reloc, error) {
	for _, f := range a.fixes {
		target, ok := a.labels[f.label]
		if !ok {
			return nil, nil, fmt.Errorf("vax: undefined label %q", f.label)
		}
		disp := target - (f.off + 2)
		if disp < -32768 || disp > 32767 {
			return nil, nil, fmt.Errorf("vax: branch to %q out of range", f.label)
		}
		binary.LittleEndian.PutUint16(a.buf[f.off:], uint16(int16(disp)))
	}
	return a.buf, a.relocs, nil
}

// Labels exposes bound labels.
func (a *Asm) Labels() map[string]int { return a.labels }

// Instrs reports how many instructions have been emitted.
func (a *Asm) Instrs() int { return a.n }
