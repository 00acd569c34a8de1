package machine

import (
	"bytes"
	"testing"

	"ldb/internal/arch"
	"ldb/internal/arch/mips"
)

// uopWant is the literal state a micro-op leaves behind.
type uopWant struct {
	regs map[int]uint32 // registers the op writes; every other keeps its preset
	flag uint32
	// mem holds the bytes expected at an address afterwards; every other
	// byte of the text and data segments keeps its initial value.
	mem   map[uint32][]byte
	next  uint32
	fault *arch.Fault // the fault the op raises; next is then not checked
	// abort marks an op that stores over the run's own text: the run
	// ends after it, even when instructions follow.
	abort bool
}

// TestUopSemantics pins the effect of every micro-op against literal
// registers, flags, memory, and next pc. Each row runs as a run of one,
// the way step() runs the uncached engine, StepOne, and the tail near
// the step limit; as the last op of a two-op fused run; and, unless it
// is a terminator, followed by one more op, which must run unless the
// row faults or stores over text. Every mode runs on a little- and a
// big-endian process, with the memory windows cold (the Load/Store
// path) and warm (the executor's open-coded accesses).
func TestUopSemantics(t *testing.T) {
	const (
		opPC      = TextBase + 0x100 // every row's op executes here
		textStore = TextBase + 0x200 // covered by a cached block
		target    = TextBase + 0x800
		unmapped  = 0x1000
		sentinel  = 0xdead0000 // the Proc-visible pc before the run
	)
	data := []byte{0x80, 0x81, 0x82, 0x83, 0x7f, 0x01, 0x02, 0x03, 15: 0}
	d4 := func() *arch.DecodedInsn { return &arch.DecodedInsn{Len: 4} }
	d := func(n uint32) *arch.DecodedInsn { return &arch.DecodedInsn{Len: n} }
	lt := uint32(0xcc) // Bcc truth table: taken when the signed-less bit (2) is set
	cases := []struct {
		name string
		in   *arch.DecodedInsn
		regs map[int]uint32
		flag uint32
		want uopWant
		be   *uopWant // the big-endian expectation, when it differs
	}{
		{name: "nop", in: d4().AluUop(arch.UopAddI, -1, 3, 0, 1), regs: map[int]uint32{3: 7},
			want: uopWant{next: opPC + 4}},
		{name: "const", in: d4().AluUop(arch.UopConst, 2, 0, 0, 0xdeadbeef),
			want: uopWant{regs: map[int]uint32{2: 0xdeadbeef}, next: opPC + 4}},
		{name: "const len 6", in: d(6).AluUop(arch.UopConst, 2, 0, 0, 0x12345678),
			want: uopWant{regs: map[int]uint32{2: 0x12345678}, next: opPC + 6}},
		{name: "addi wraps", in: d4().AluUop(arch.UopAddI, 2, 3, 0, 0xffffffff), regs: map[int]uint32{3: 5},
			want: uopWant{regs: map[int]uint32{2: 4}, next: opPC + 4}},
		{name: "addi len 2 move", in: d(2).AluUop(arch.UopAddI, 2, 3, 0, 0), regs: map[int]uint32{3: 9},
			want: uopWant{regs: map[int]uint32{2: 9}, next: opPC + 2}},
		{name: "add", in: d4().AluUop(arch.UopAdd, 2, 3, 4, 0), regs: map[int]uint32{3: 0xffffffff, 4: 2},
			want: uopWant{regs: map[int]uint32{2: 1}, next: opPC + 4}},
		{name: "sub", in: d4().AluUop(arch.UopSub, 2, 3, 4, 0), regs: map[int]uint32{3: 1, 4: 2},
			want: uopWant{regs: map[int]uint32{2: 0xffffffff}, next: opPC + 4}},
		{name: "and", in: d4().AluUop(arch.UopAnd, 2, 3, 4, 0), regs: map[int]uint32{3: 0xf0f0, 4: 0xff00},
			want: uopWant{regs: map[int]uint32{2: 0xf000}, next: opPC + 4}},
		{name: "andi", in: d4().AluUop(arch.UopAndI, 2, 3, 0, 0x0ff0), regs: map[int]uint32{3: 0xf0f0},
			want: uopWant{regs: map[int]uint32{2: 0x00f0}, next: opPC + 4}},
		{name: "or", in: d4().AluUop(arch.UopOr, 2, 3, 4, 0), regs: map[int]uint32{3: 0xf000, 4: 0x000f},
			want: uopWant{regs: map[int]uint32{2: 0xf00f}, next: opPC + 4}},
		{name: "ori", in: d4().AluUop(arch.UopOrI, 2, 3, 0, 0x0f00), regs: map[int]uint32{3: 0xf000},
			want: uopWant{regs: map[int]uint32{2: 0xff00}, next: opPC + 4}},
		{name: "xor", in: d4().AluUop(arch.UopXor, 2, 3, 4, 0), regs: map[int]uint32{3: 0xff00, 4: 0x0ff0},
			want: uopWant{regs: map[int]uint32{2: 0xf0f0}, next: opPC + 4}},
		{name: "xori", in: d4().AluUop(arch.UopXorI, 2, 3, 0, 0xffffffff), regs: map[int]uint32{3: 0x0000ffff},
			want: uopWant{regs: map[int]uint32{2: 0xffff0000}, next: opPC + 4}},
		{name: "nor", in: d4().AluUop(arch.UopNor, 2, 3, 4, 0), regs: map[int]uint32{3: 0xf0f0f0f0, 4: 0x0f0f0000},
			want: uopWant{regs: map[int]uint32{2: 0x00000f0f}, next: opPC + 4}},
		{name: "mul", in: d4().AluUop(arch.UopMul, 2, 3, 4, 0), regs: map[int]uint32{3: 0xffffffff, 4: 3},
			want: uopWant{regs: map[int]uint32{2: 0xfffffffd}, next: opPC + 4}},
		{name: "shli", in: d4().AluUop(arch.UopShlI, 2, 3, 0, 31), regs: map[int]uint32{3: 3},
			want: uopWant{regs: map[int]uint32{2: 0x80000000}, next: opPC + 4}},
		{name: "shri", in: d4().AluUop(arch.UopShrI, 2, 3, 0, 31), regs: map[int]uint32{3: 0x80000000},
			want: uopWant{regs: map[int]uint32{2: 1}, next: opPC + 4}},
		{name: "sari", in: d4().AluUop(arch.UopSarI, 2, 3, 0, 31), regs: map[int]uint32{3: 0x80000000},
			want: uopWant{regs: map[int]uint32{2: 0xffffffff}, next: opPC + 4}},
		{name: "shl count 33", in: d4().AluUop(arch.UopShl, 2, 3, 4, 0), regs: map[int]uint32{3: 1, 4: 33},
			want: uopWant{regs: map[int]uint32{2: 2}, next: opPC + 4}},
		{name: "shr count 63", in: d4().AluUop(arch.UopShr, 2, 3, 4, 0), regs: map[int]uint32{3: 0x80000000, 4: 63},
			want: uopWant{regs: map[int]uint32{2: 1}, next: opPC + 4}},
		{name: "sar count 32", in: d4().AluUop(arch.UopSar, 2, 3, 4, 0), regs: map[int]uint32{3: 0x80000000, 4: 32},
			want: uopWant{regs: map[int]uint32{2: 0x80000000}, next: opPC + 4}},
		{name: "sar count 36", in: d4().AluUop(arch.UopSar, 2, 3, 4, 0), regs: map[int]uint32{3: 0x80000000, 4: 36},
			want: uopWant{regs: map[int]uint32{2: 0xf8000000}, next: opPC + 4}},
		{name: "slti", in: d4().AluUop(arch.UopSltI, 2, 3, 0, 0), regs: map[int]uint32{3: 0x80000000},
			want: uopWant{regs: map[int]uint32{2: 1}, next: opPC + 4}},
		{name: "slt 0x80000000 < 1", in: d4().AluUop(arch.UopSlt, 2, 3, 4, 0), regs: map[int]uint32{2: 9, 3: 0x80000000, 4: 1},
			want: uopWant{regs: map[int]uint32{2: 1}, next: opPC + 4}},
		{name: "sltu 0x80000000 >= 1", in: d4().AluUop(arch.UopSltu, 2, 3, 4, 0), regs: map[int]uint32{2: 9, 3: 0x80000000, 4: 1},
			want: uopWant{regs: map[int]uint32{2: 0}, next: opPC + 4}},
		{name: "cmp signed less", in: d4().FlagUop(arch.UopCmp, 3, 4, 0), regs: map[int]uint32{3: 0x80000000, 4: 1}, flag: 7,
			want: uopWant{flag: 2, next: opPC + 4}},
		{name: "cmpi unsigned less", in: d4().FlagUop(arch.UopCmpI, 3, 0, 0x80000000), regs: map[int]uint32{3: 1},
			want: uopWant{flag: 4, next: opPC + 4}},
		{name: "subcc equal", in: d4().AluUop(arch.UopSubCC, 2, 3, 4, 0), regs: map[int]uint32{2: 9, 3: 5, 4: 5},
			want: uopWant{regs: map[int]uint32{2: 0}, flag: 1, next: opPC + 4}},
		{name: "subcci less", in: d4().AluUop(arch.UopSubCCI, 2, 3, 0, 1), regs: map[int]uint32{3: 0},
			want: uopWant{regs: map[int]uint32{2: 0xffffffff}, flag: 6, next: opPC + 4}},
		{name: "ld32", in: d4().MemUop(arch.UopLd32, 2, 3, 4, 4), regs: map[int]uint32{3: DataBase - 8, 4: 4},
			want: uopWant{regs: map[int]uint32{2: 0x83828180}, next: opPC + 4},
			be:   &uopWant{regs: map[int]uint32{2: 0x80818283}, next: opPC + 4}},
		{name: "ld16u", in: d4().MemUop(arch.UopLd16U, 2, 3, 0, 0), regs: map[int]uint32{3: DataBase},
			want: uopWant{regs: map[int]uint32{2: 0x8180}, next: opPC + 4},
			be:   &uopWant{regs: map[int]uint32{2: 0x8081}, next: opPC + 4}},
		{name: "ld16s sign-extends", in: d4().MemUop(arch.UopLd16S, 2, 3, 0, 0), regs: map[int]uint32{3: DataBase},
			want: uopWant{regs: map[int]uint32{2: 0xffff8180}, next: opPC + 4},
			be:   &uopWant{regs: map[int]uint32{2: 0xffff8081}, next: opPC + 4}},
		{name: "ld8u", in: d4().MemUop(arch.UopLd8U, 2, 3, 0, 1), regs: map[int]uint32{3: DataBase},
			want: uopWant{regs: map[int]uint32{2: 0x81}, next: opPC + 4}},
		{name: "ld8s sign-extends", in: d4().MemUop(arch.UopLd8S, 2, 3, 0, 0), regs: map[int]uint32{3: DataBase},
			want: uopWant{regs: map[int]uint32{2: 0xffffff80}, next: opPC + 4}},
		{name: "ld8s positive", in: d4().MemUop(arch.UopLd8S, 2, 3, 0, 4), regs: map[int]uint32{3: DataBase},
			want: uopWant{regs: map[int]uint32{2: 0x7f}, next: opPC + 4}},
		{name: "st32", in: d4().MemUop(arch.UopSt32, 2, 3, 0, 4), regs: map[int]uint32{2: 0x11223344, 3: DataBase},
			want: uopWant{mem: map[uint32][]byte{DataBase + 4: {0x44, 0x33, 0x22, 0x11}}, next: opPC + 4},
			be:   &uopWant{mem: map[uint32][]byte{DataBase + 4: {0x11, 0x22, 0x33, 0x44}}, next: opPC + 4}},
		{name: "st16 low half", in: d4().MemUop(arch.UopSt16, 2, 3, 0, 6), regs: map[int]uint32{2: 0xaabbccdd, 3: DataBase},
			want: uopWant{mem: map[uint32][]byte{DataBase + 6: {0xdd, 0xcc}}, next: opPC + 4},
			be:   &uopWant{mem: map[uint32][]byte{DataBase + 6: {0xcc, 0xdd}}, next: opPC + 4}},
		{name: "st8 low byte", in: d4().MemUop(arch.UopSt8, 2, 3, 0, 5), regs: map[int]uint32{2: 0xaabbccdd, 3: DataBase},
			want: uopWant{mem: map[uint32][]byte{DataBase + 5: {0xdd}}, next: opPC + 4}},
		{name: "st32 over text ends the run", in: d4().MemUop(arch.UopSt32, 3, 4, 0, 0), regs: map[int]uint32{3: 0x01020304, 4: textStore},
			want: uopWant{mem: map[uint32][]byte{textStore: {4, 3, 2, 1}}, next: opPC + 4, abort: true},
			be:   &uopWant{mem: map[uint32][]byte{textStore: {1, 2, 3, 4}}, next: opPC + 4, abort: true}},
		{name: "ld32 unmapped faults at its own pc", in: d4().MemUop(arch.UopLd32, 2, 3, 0, 0), regs: map[int]uint32{2: 9, 3: unmapped},
			want: uopWant{fault: &arch.Fault{Kind: arch.FaultSignal, Sig: arch.SigSegv, Addr: unmapped, PC: opPC}}},
		{name: "jmp", in: d4().TermUop(arch.UopJmp, 0, 0, 0, target),
			want: uopWant{next: target}},
		{name: "jmpl links pc+4 (mips)", in: d4().TermUop(arch.UopJmpL, mips.RA, 0, 4, target),
			want: uopWant{regs: map[int]uint32{mips.RA: opPC + 4}, next: target}},
		{name: "jmpl links pc (sparc)", in: d4().TermUop(arch.UopJmpL, 15, 0, 0, target),
			want: uopWant{regs: map[int]uint32{15: opPC}, next: target}},
		{name: "jmpind", in: d4().TermUop(arch.UopJmpInd, 0, 3, 4, 8), regs: map[int]uint32{3: TextBase + 0x400, 4: 0x10},
			want: uopWant{next: TextBase + 0x418}},
		{name: "jmpindl reads its source before linking into it", in: d4().TermUop(arch.UopJmpIndL, 3, 3, 4, 8), regs: map[int]uint32{3: TextBase + 0x400},
			want: uopWant{regs: map[int]uint32{3: opPC + 4}, next: TextBase + 0x408}},
		{name: "beq taken", in: d4().TermUop(arch.UopBeq, 0, 3, 4, target), regs: map[int]uint32{3: 5, 4: 5},
			want: uopWant{next: target}},
		{name: "bne not taken", in: d4().TermUop(arch.UopBne, 0, 3, 4, target), regs: map[int]uint32{3: 5, 4: 5},
			want: uopWant{next: opPC + 4}},
		{name: "blt signed taken", in: d4().TermUop(arch.UopBlt, 0, 3, 4, target), regs: map[int]uint32{3: 0x80000000, 4: 1},
			want: uopWant{next: target}},
		{name: "bge signed not taken", in: d4().TermUop(arch.UopBge, 0, 3, 4, target), regs: map[int]uint32{3: 0x80000000, 4: 1},
			want: uopWant{next: opPC + 4}},
		{name: "ble equal taken", in: d4().TermUop(arch.UopBle, 0, 3, 4, target), regs: map[int]uint32{3: 5, 4: 5},
			want: uopWant{next: target}},
		{name: "bgt equal not taken", in: d4().TermUop(arch.UopBgt, 0, 3, 4, target), regs: map[int]uint32{3: 5, 4: 5},
			want: uopWant{next: opPC + 4}},
		{name: "bcc taken", in: d4().TermUop(arch.UopBcc, int(lt), 0, 0, target), flag: 2,
			want: uopWant{flag: 2, next: target}},
		{name: "bcc not taken", in: d4().TermUop(arch.UopBcc, int(lt), 0, 0, target), flag: 1,
			want: uopWant{flag: 1, next: opPC + 4}},
		{name: "bcc not taken len 2", in: d(2).TermUop(arch.UopBcc, int(lt), 0, 0, target), flag: 1,
			want: uopWant{flag: 1, next: opPC + 2}},
	}

	covered := map[arch.Uop]bool{}
	for _, c := range cases {
		covered[c.in.Uop] = true
	}
	for u := arch.UopNop; u <= arch.UopBcc; u++ {
		if !covered[u] {
			t.Errorf("micro-op %d has no row", u)
		}
	}

	// filler precedes the op in a two-op run; marker follows it.
	filler := fuse(d4().AluUop(arch.UopAddI, 20, 20, 0, 1), 0)
	for _, a := range []*mips.Mips{mips.Little, mips.Big} {
		for _, c := range cases {
			want := c.want
			if c.be != nil && a == mips.Big {
				want = *c.be
			}
			term := c.in.Flags&arch.InsnTerm != 0
			for _, mode := range []string{"alone", "last of two", "first of two"} {
				if mode == "first of two" && term {
					continue
				}
				for _, warm := range []bool{false, true} {
					p := New(a, make([]byte, 0x400), data, opPC)
					s := p.textSeg(opPC)
					s.sblocks = make([]*sblock, p.slots(s))
					s.sblocks[(textStore-TextBase)>>p.slotShift] = &sblock{nbytes: 4}
					for r, v := range c.regs {
						p.SetReg(r, v)
					}
					p.SetFlag(c.flag)
					p.SetPC(sentinel)
					if warm {
						p.Load(TextBase, 1)
						p.Load(DataBase, 1)
					}
					// The expected end state, before the mode's extra ops.
					regs := append([]uint32(nil), p.regs...)
					for r, v := range want.regs {
						regs[r] = v
					}
					text := append([]byte(nil), p.Segs[0].Data...)
					mem := append([]byte(nil), p.Segs[1].Data...)
					for addr, b := range want.mem {
						if addr >= DataBase {
							copy(mem[addr-DataBase:], b)
						} else {
							copy(text[addr-TextBase:], b)
						}
					}
					op := fuse(c.in, 0)
					ops, pc, wantN, wantNext := []fusedOp{op}, uint32(opPC), 1, want.next
					switch mode {
					case "last of two":
						op.off = 4
						ops, pc, wantN = []fusedOp{filler, op}, opPC-4, 2
						regs[20]++
					case "first of two":
						marker := fuse(d4().AluUop(arch.UopAddI, 21, 21, 0, 1), c.in.Len)
						ops = append(ops, marker)
						if want.fault == nil && !want.abort {
							wantN, wantNext = 2, want.next+4
							regs[21]++
						}
					}

					next, n, f := p.exec(s, ops, pc)

					name := a.Name() + "/" + c.name + "/" + mode
					if warm {
						name += "/warm"
					}
					switch {
					case want.fault != nil:
						if f == nil || *f != *want.fault {
							t.Errorf("%s: fault %+v, want %+v", name, f, want.fault)
						} else if p.pc != want.fault.PC {
							t.Errorf("%s: committed pc %#x, want %#x", name, p.pc, want.fault.PC)
						}
					case f != nil:
						t.Errorf("%s: unexpected fault %+v", name, f)
					case next != wantNext:
						t.Errorf("%s: next %#x, want %#x", name, next, wantNext)
					case p.pc != sentinel:
						t.Errorf("%s: pc committed to %#x by a run that did not fault", name, p.pc)
					}
					if n != wantN {
						t.Errorf("%s: retired %d, want %d", name, n, wantN)
					}
					for r := range regs {
						if p.regs[r] != regs[r] {
							t.Errorf("%s: r%d = %#x, want %#x", name, r, p.regs[r], regs[r])
						}
					}
					if p.flag != want.flag {
						t.Errorf("%s: flag %#x, want %#x", name, p.flag, want.flag)
					}
					if !bytes.Equal(p.Segs[0].Data, text) {
						t.Errorf("%s: text differs from expected", name)
					}
					if !bytes.Equal(p.Segs[1].Data, mem) {
						t.Errorf("%s: data % x, want % x", name, p.Segs[1].Data, mem)
					}
				}
			}
		}
	}
}
