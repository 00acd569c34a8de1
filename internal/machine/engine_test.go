package machine

import (
	"encoding/binary"
	"testing"

	"ldb/internal/arch"
	"ldb/internal/arch/m68k"
	"ldb/internal/arch/mips"
	"ldb/internal/arch/sparc"
	"ldb/internal/arch/vax"
)

// words encodes instruction words of the given width (2 or 4 bytes) in
// byte order o.
func words(o binary.ByteOrder, width int, ws ...uint32) []byte {
	b := make([]byte, width*len(ws))
	for i, w := range ws {
		if width == 2 {
			o.PutUint16(b[2*i:], uint16(w))
		} else {
			o.PutUint32(b[4*i:], w)
		}
	}
	return b
}

// TestEngineFaults pins the faults where there is no instruction to
// execute, on every ISA: bytes Decode rejects raise SIGILL at pc with
// the registers untouched, and an unmapped pc raises SIGSEGV with
// Addr = PC = pc. The cached and the uncached engine must stop with
// the same fault, pc, registers, and step count. A misaligned pc must
// also raise SIGILL once the caches are warm: it shares a cache slot
// with the instruction on the boundary below it, and must never run
// that slot's entry or block.
func TestEngineFaults(t *testing.T) {
	const unmapped = 0x1000
	asm := func(code []byte, _ []arch.Reloc, err error) []byte {
		if err != nil {
			t.Fatal(err)
		}
		return code
	}
	ma := mips.NewAsm(mips.Little)
	ma.R(mips.FnJr, 0, mips.T0, 0)
	mipsJr := asm(ma.Finish())
	sa := sparc.NewAsm()
	sa.Jmpl(sparc.G0, sparc.G1, 0)
	sparcJmpl := asm(sa.Finish())

	ill := func(pc uint32) arch.Fault {
		return arch.Fault{Kind: arch.FaultSignal, Sig: arch.SigIll, PC: pc}
	}
	segv := arch.Fault{Kind: arch.FaultSignal, Sig: arch.SigSegv, Addr: unmapped, PC: unmapped}
	le, be := binary.LittleEndian, binary.BigEndian
	cases := []struct {
		name  string
		a     arch.Arch
		code  []byte
		entry uint32
		regs  map[int]uint32 // preset before running
		want  arch.Fault
	}{
		{"mips/illegal", mips.Little, words(le, 4, 0, 0xfc000000), TextBase, nil, ill(TextBase + 4)},
		// Every misaligned view of these words is itself a legal
		// instruction, so only the boundary check can refuse them.
		{"mips/misaligned", mips.Little, words(le, 4, 0, 0, 0, 0), TextBase + 2, nil, ill(TextBase + 2)},
		{"mips/unmapped", mips.Little, mipsJr, TextBase, map[int]uint32{mips.T0: unmapped}, segv},

		{"sparc/illegal", sparc.Target, words(be, 4, 0x01000000, 0), TextBase, nil, ill(TextBase + 4)},
		{"sparc/misaligned", sparc.Target, words(be, 4, 0x03000300, 0x03000300, 0x03000300), TextBase + 2, nil, ill(TextBase + 2)},
		{"sparc/unmapped", sparc.Target, sparcJmpl, TextBase, map[int]uint32{sparc.G1: unmapped}, segv},

		{"m68k/illegal", m68k.Target, words(be, 2, 0x4e71, 0), TextBase, nil, ill(TextBase + 2)},
		{"m68k/misaligned", m68k.Target, words(be, 2, 0x1010, 0x1010, 0x1010), TextBase + 1, nil, ill(TextBase + 1)},
		// A 6-byte move-immediate whose last extension word lies past the
		// end of text.
		{"m68k/truncated", m68k.Target, words(be, 2, 0x4e71, 0x1110, 0), TextBase, nil, ill(TextBase + 2)},
		{"m68k/unmapped", m68k.Target, words(be, 2, 0x4e90), TextBase, map[int]uint32{m68k.A0: unmapped}, segv},

		{"vax/illegal", vax.Target, []byte{vax.OpNop, 0xff}, TextBase, nil, ill(TextBase + 1)},
		// movl #imm32, r1 with two of the immediate's four bytes.
		{"vax/truncated", vax.Target, []byte{vax.OpNop, vax.OpMovl, 0x8f, 0x34, 0x12}, TextBase, nil, ill(TextBase + 1)},
		// movl (r2)+, <reserved mode 7>: the autoincrement must not run.
		{"vax/reserved-mode", vax.Target, []byte{vax.OpMovl, vax.ModeAuto<<4 | 2, 0x71}, TextBase, map[int]uint32{2: DataBase}, ill(TextBase)},
		{"vax/unmapped", vax.Target, []byte{vax.OpJmp, vax.ModeDefer<<4 | 1}, TextBase, map[int]uint32{1: unmapped}, segv},
	}
	for _, c := range cases {
		if c.entry%uint32(c.a.InstrSize()) != 0 {
			p := New(c.a, c.code, make([]byte, 16), TextBase)
			p.Run() // fills the slot below c.entry, whatever it stops at
			if p.SimStats().Decodes == 0 {
				t.Fatalf("%s: warm-up decoded nothing", c.name)
			}
			p.SetPC(c.entry)
			before := append([]uint32(nil), p.regs...)
			if f := p.Run(); f == nil || *f != c.want || p.PC() != c.want.PC {
				t.Errorf("%s (warm): fault %v at pc %#x, want %v", c.name, f, p.PC(), &c.want)
			}
			for r := range before {
				if p.regs[r] != before[r] {
					t.Errorf("%s (warm): r%d = %#x, want %#x untouched", c.name, r, p.regs[r], before[r])
				}
			}
		}
		var runs [2]*Process
		for i, noPredecode := range []bool{false, true} {
			p := New(c.a, c.code, make([]byte, 16), c.entry)
			p.NoPredecode = noPredecode
			for r, v := range c.regs {
				p.SetReg(r, v)
			}
			before := append([]uint32(nil), p.regs...)
			f := p.Run()
			if f == nil || *f != c.want || p.PC() != c.want.PC {
				t.Errorf("%s (noPredecode=%v): fault %v at pc %#x, want %v", c.name, noPredecode, f, p.PC(), &c.want)
				continue
			}
			if c.want.Sig == arch.SigIll {
				for r := range before {
					if p.regs[r] != before[r] {
						t.Errorf("%s (noPredecode=%v): r%d = %#x, want %#x untouched", c.name, noPredecode, r, p.regs[r], before[r])
					}
				}
			}
			runs[i] = p
		}
		pc, pu := runs[0], runs[1]
		if pc == nil || pu == nil {
			continue
		}
		if pc.Steps != pu.Steps {
			t.Errorf("%s: cached ran %d steps, uncached %d", c.name, pc.Steps, pu.Steps)
		}
		for r := range pc.regs {
			if pc.regs[r] != pu.regs[r] {
				t.Errorf("%s: r%d cached %#x, uncached %#x", c.name, r, pc.regs[r], pu.regs[r])
			}
		}
	}
}
