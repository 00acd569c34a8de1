package m68k

import (
	"encoding/binary"
	"fmt"

	"ldb/internal/arch"
)

// The regular opword groups (majors 1, 2, 6, and 0xF). Major 4 carries
// the real 68000 encodings (trap/link/unlk/nop/rts/jsr).
//
//	opword = major<<12 | minor<<8 | rx<<4 | ry
//
// Move group (major 1) minors:
const (
	MvReg    = 0x0 // rx = ry
	MvImm    = 0x1 // rx = imm32 (ext: 4 bytes)
	MvQ      = 0x2 // rx = imm16 sign-extended (ext: 2 bytes)
	MvLoadL  = 0x3 // rx = *(ry + disp16).l
	MvStoreL = 0x4 // *(ry + disp16).l = rx
	MvLoadB  = 0x5 // rx = sext *(ry+disp16).b
	MvStoreB = 0x6
	MvLoadW  = 0x7 // rx = sext *(ry+disp16).w
	MvStoreW = 0x8
	MvLoadBu = 0x9 // zero-extended byte load
	MvLoadWu = 0xa // zero-extended word load
	MvPush   = 0xb // move.l rx, -(sp)
	MvPop    = 0xc // move.l (sp)+, rx
	MvLea    = 0xd // rx = abs32 (ext: 4 bytes, relocatable)
	MvLeaD   = 0xe // rx = ry + disp16
)

// Arithmetic group (major 2) minors: rx = rx OP ry unless noted.
const (
	ArAdd  = 0x0
	ArSub  = 0x1
	ArMul  = 0x2
	ArDiv  = 0x3
	ArAnd  = 0x4
	ArOr   = 0x5
	ArXor  = 0x6
	ArLsl  = 0x7
	ArLsr  = 0x8
	ArAsr  = 0x9
	ArNeg  = 0xa // rx = -rx
	ArNot  = 0xb // rx = ^rx
	ArCmp  = 0xc // flag = compare(rx, ry)
	ArAddI = 0xe // rx += imm16 (ext)
)

// Branch conditions (major 6, real 68000 numbering), always with a
// 16-bit displacement extension word relative to the opword end.
const (
	CcRA = 0x0 // bra
	CcHI = 0x2
	CcLS = 0x3
	CcCC = 0x4 // unsigned >=
	CcCS = 0x5 // unsigned <
	CcNE = 0x6
	CcEQ = 0x7
	CcGE = 0xc
	CcLT = 0xd
	CcGT = 0xe
	CcLE = 0xf
)

// Float group (major 0xF) minors. Two-operand like the 68881:
// fx = fx OP fy.
const (
	FAdd    = 0x0
	FSub    = 0x1
	FMul    = 0x2
	FDiv    = 0x3
	FNeg    = 0x4 // fx = -fx
	FMove   = 0x5 // fx = fy
	FCmp    = 0x6 // flag = compare(fx, fy)
	FFromI  = 0x7 // fx = float(dy)
	FToI    = 0x8 // dy? no: dx = trunc(fy): rx is the data register
	FLoadS  = 0x9 // fx = *(ay+disp16) single
	FLoadD  = 0xa
	FLoadX  = 0xb // 12-byte extended
	FStoreS = 0xc
	FStoreD = 0xd
	FStoreX = 0xe
)

// Flag bits (shared scheme with the SPARC simulator, private to each
// arch's decoder).
const (
	FlagZ = 1 << 0
	FlagN = 1 << 1 // signed less-than after Cmp(a, b)
	FlagC = 1 << 2 // unsigned less-than
)

type fixup struct {
	off   int // offset of the displacement extension word
	label string
}

// Asm assembles 68k instructions.
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

func (a *Asm) w16(v uint16) {
	a.buf = append(a.buf, byte(v>>8), byte(v))
}

func (a *Asm) w32(v uint32) {
	a.buf = append(a.buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func op(major, minor, rx, ry int) uint16 {
	return uint16(major&15)<<12 | uint16(minor&15)<<8 | uint16(rx&15)<<4 | uint16(ry&15)
}

// Move emits rx = ry.
func (a *Asm) Move(rx, ry int) {
	a.n++
	a.w16(op(1, MvReg, rx, ry))
}

// MoveImm emits rx = imm.
func (a *Asm) MoveImm(rx int, imm int32) {
	a.n++
	if imm >= -32768 && imm < 32768 {
		a.w16(op(1, MvQ, rx, 0))
		a.w16(uint16(imm))
		return
	}
	a.w16(op(1, MvImm, rx, 0))
	a.w32(uint32(imm))
}

// Lea emits rx = address of sym+add.
func (a *Asm) Lea(rx int, sym string, add int64) {
	a.n++
	a.w16(op(1, MvLea, rx, 0))
	a.relocs = append(a.relocs, arch.Reloc{Off: len(a.buf), Kind: arch.RelAbs32, Sym: sym, Add: add})
	a.w32(0)
}

// LeaD emits rx = ry + disp.
func (a *Asm) LeaD(rx, ry int, disp int16) {
	a.n++
	a.w16(op(1, MvLeaD, rx, ry))
	a.w16(uint16(disp))
}

// Mem emits a load or store minor with a 16-bit displacement.
func (a *Asm) Mem(minor, rx, ry int, disp int16) {
	a.n++
	a.w16(op(1, minor, rx, ry))
	a.w16(uint16(disp))
}

// Push emits move.l rx, -(sp).
func (a *Asm) Push(rx int) {
	a.n++
	a.w16(op(1, MvPush, rx, 0))
}

// Pop emits move.l (sp)+, rx.
func (a *Asm) Pop(rx int) {
	a.n++
	a.w16(op(1, MvPop, rx, 0))
}

// Arith emits rx = rx OP ry.
func (a *Asm) Arith(minor, rx, ry int) {
	a.n++
	a.w16(op(2, minor, rx, ry))
}

// AddI emits rx += imm.
func (a *Asm) AddI(rx int, imm int16) {
	a.n++
	a.w16(op(2, ArAddI, rx, 0))
	a.w16(uint16(imm))
}

// Cmp emits flag = compare(rx, ry).
func (a *Asm) Cmp(rx, ry int) {
	a.n++
	a.w16(op(2, ArCmp, rx, ry))
}

// Branch emits Bcc to a local label.
func (a *Asm) Branch(cond int, label string) {
	a.n++
	a.w16(0x6000 | uint16(cond&15)<<8)
	a.fixes = append(a.fixes, fixup{off: len(a.buf), label: label})
	a.w16(0)
}

// Bra emits an unconditional branch.
func (a *Asm) Bra(label string) { a.Branch(CcRA, label) }

// Trap emits trap #n.
func (a *Asm) Trap(n int) {
	a.n++
	a.w16(0x4e40 | uint16(n&15))
}

// Nop emits the 68000 nop.
func (a *Asm) Nop() {
	a.n++
	a.w16(0x4e71)
}

// Rts emits rts.
func (a *Asm) Rts() {
	a.n++
	a.w16(0x4e75)
}

// Link emits link aN, #disp (disp is negative: the frame size).
func (a *Asm) Link(an int, disp int16) {
	a.n++
	a.w16(0x4e50 | uint16(an&7))
	a.w16(uint16(disp))
}

// Unlk emits unlk aN.
func (a *Asm) Unlk(an int) {
	a.n++
	a.w16(0x4e58 | uint16(an&7))
}

// Jsr emits jsr abs32 to a global symbol.
func (a *Asm) Jsr(sym string) {
	a.n++
	a.w16(0x4eb9)
	a.relocs = append(a.relocs, arch.Reloc{Off: len(a.buf), Kind: arch.RelAbs32, Sym: sym})
	a.w32(0)
}

// JsrReg emits jsr (aN) for calls through pointers.
func (a *Asm) JsrReg(an int) {
	a.n++
	a.w16(0x4e90 | uint16(an&7))
}

// F emits a float-group opword (fx = fx OP fy and friends).
func (a *Asm) F(minor, fx, fy int) {
	a.n++
	a.w16(op(0xf, minor, fx, fy))
}

// FMem emits a float load/store minor with a displacement: the fx field
// is the float register, fy the address register.
func (a *Asm) FMem(minor, fx, ay int, disp int16) {
	a.n++
	a.w16(op(0xf, minor, fx, ay))
	a.w16(uint16(disp))
}

// Finish resolves branches and returns the code and relocations.
func (a *Asm) Finish() ([]byte, []arch.Reloc, error) {
	for _, f := range a.fixes {
		target, ok := a.labels[f.label]
		if !ok {
			return nil, nil, fmt.Errorf("m68k: undefined label %q", f.label)
		}
		disp := target - (f.off + 2)
		if disp < -32768 || disp > 32767 {
			return nil, nil, fmt.Errorf("m68k: branch to %q out of range", f.label)
		}
		binary.BigEndian.PutUint16(a.buf[f.off:], uint16(int16(disp)))
	}
	return a.buf, a.relocs, nil
}

// Labels exposes bound labels.
func (a *Asm) Labels() map[string]int { return a.labels }

// Instrs reports how many instructions have been emitted.
func (a *Asm) Instrs() int { return a.n }
