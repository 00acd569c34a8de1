// Package machine simulates the target process and the small slice of
// operating system ldb's nub depends on: a flat address space with
// text, data, and stack segments, registers, signals, and a few system
// calls for program output and exit. The nub (package nub) attaches to
// a Process the way the paper's nub is loaded with the target program.
package machine

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"ldb/internal/amem"
	"ldb/internal/arch"
)

// Conventional segment addresses shared by all four targets.
const (
	TextBase  = 0x00400000
	DataBase  = 0x10000000
	StackTop  = 0x7fff0000
	StackSize = 0x40000
)

// Segment is a contiguous mapped region.
type Segment struct {
	Name string
	Base uint32
	Data []byte
	// decoded is the segment's decode cache, with one slot per
	// instruction-sized unit of text (see Process.slotShift); allocated
	// lazily on first execution from the segment, so data and stack
	// segments never pay for it. See predecode.go.
	// Entries are stored by value (a zero Len means "not decoded") so
	// dispatch loads an entry with one indirection, not two.
	decoded []arch.DecodedInsn
	// sblocks is the superblock cache, indexed by the entry's slot,
	// and gen is the segment's invalidation generation: any text write
	// that drops a block bumps it, which both severs predicted-successor
	// links and tells a block in mid-execution to abandon its remaining
	// fused instructions. See superblock.go.
	sblocks []*sblock
	gen     uint64
	// maxBlock is an upper bound on the byte span of every block ever
	// installed in sblocks, raised wherever one is installed (runFused
	// and TextCache.Adopt): no block starting further than maxBlock-1
	// bytes before a write can cover it, so invalidation looks back only
	// that far. A bound that is too high only costs sweep time.
	maxBlock uint32
	// shadow, when armed by EnableCheckpoints, tracks dirty pages so a
	// checkpoint forks O(dirty pages), not O(memory). See checkpoint.go.
	shadow *amem.Shadow
	// ro marks decoded as shared read-only (adopted from, or published
	// into, a TextCache): mutators must call privatize before writing a
	// decoded entry. sblocks is always private — adoption clones block
	// headers — so only the decoded slice participates in copy-on-write.
	ro bool
}

// privatize unshares the segment's decode cache before its first
// mutation: the decoded slice may be referenced by other processes, so
// the writer copies it and drops the read-only mark. No-op on segments
// that were never shared.
func (s *Segment) privatize() {
	if !s.ro {
		return
	}
	s.decoded = append([]arch.DecodedInsn(nil), s.decoded...)
	s.ro = false
}

// Contains reports whether [addr, addr+size) lies inside the segment.
func (s *Segment) Contains(addr uint32, size int) bool {
	return addr >= s.Base && uint64(addr)+uint64(size) <= uint64(s.Base)+uint64(len(s.Data))
}

// State describes a process's lifecycle.
type State int

// Process states.
const (
	StateStopped State = iota
	StateRunning
	StateExited
)

func (s State) String() string {
	switch s {
	case StateStopped:
		return "stopped"
	case StateRunning:
		return "running"
	case StateExited:
		return "exited"
	}
	return "?"
}

// Process is a simulated target process.
type Process struct {
	A        arch.Arch
	Segs     []*Segment
	regs     []uint32
	fregs    []float64
	pc       uint32
	flag     uint32
	State    State
	ExitCode int
	// Stdout collects the program's output (write syscalls).
	Stdout bytes.Buffer
	// Steps counts executed instructions.
	Steps int64
	// Sim counts decode-cache activity (see predecode.go).
	Sim SimStats
	// NoPredecode selects the uncached engine: each step decodes the
	// instruction at pc, executes it, and discards the decoded form, with
	// no decode cache and no superblocks. It runs the same Decode
	// products as the cached engine, so differential tests use it as the
	// reference for caching, invalidation, and fusion, and the
	// cached-vs-uncached benchmarks as their denominator.
	NoPredecode bool

	be       bool     // big-endian target; avoids per-access Order() dispatch
	lastSeg  *Segment // memory fast path: last segment hit by seg()
	lastText *Segment // execution fast path: last segment fetched from
	// slotShift is log2 of the architecture's instruction size: the
	// instruction at text offset off has cache slot off>>slotShift, and
	// an offset with any of the low slotShift bits set is not on an
	// instruction boundary.
	slotShift uint32

	// memBase/memData mirror lastSeg's window so the fused dispatch
	// loop's memory micro-ops bounds-check against Process fields
	// directly — one load fewer on the critical path than chasing the
	// Segment pointer. The second window holds the previously hit
	// segment, demoted by seg() when the first misses: a workload
	// alternating between two segments (stack locals and globals, the
	// common case) stays on the fast path instead of paying a segment
	// scan per alternation. Zero windows (nil data) simply miss.
	// memSeg2 is the demoted window's segment, which stores need for
	// invalidation; window one's segment is lastSeg itself.
	memBase  uint32
	memData  []byte
	memBase2 uint32
	memData2 []byte
	memSeg2  *Segment

	// Auto-checkpoint pacing (checkpoint.go): when ckEvery > 0, Run
	// calls ckFn from its outer loop every ckEvery instructions by
	// folding ckNext into the step limit — the fused dispatch loop is
	// untouched between checkpoints.
	ckEvery int64
	ckNext  int64
	ckFn    func()
}

// New returns a stopped process with text and data segments holding the
// given images and a fresh stack.
func New(a arch.Arch, text, data []byte, entry uint32) *Process {
	p := &Process{
		A:     a,
		regs:  make([]uint32, a.NumRegs()),
		fregs: make([]float64, a.NumFRegs()),
		pc:    entry,
	}
	p.be = a.Order() == binary.BigEndian //ldb:allow endian caches the arch's declared order for the hot load/store path
	p.slotShift = slotShift(a)
	p.Segs = []*Segment{
		{Name: "text", Base: TextBase, Data: append([]byte(nil), text...)},
		{Name: "data", Base: DataBase, Data: append([]byte(nil), data...)},
		{Name: "stack", Base: StackTop - StackSize, Data: make([]byte, StackSize)},
	}
	p.SetReg(a.SPReg(), StackTop-64)
	return p
}

// PC implements arch.Proc.
func (p *Process) PC() uint32 { return p.pc }

// SetPC implements arch.Proc.
func (p *Process) SetPC(v uint32) { p.pc = v }

// Reg implements arch.Proc.
func (p *Process) Reg(i int) uint32 {
	if i < 0 || i >= len(p.regs) {
		return 0
	}
	return p.regs[i]
}

// SetReg implements arch.Proc.
func (p *Process) SetReg(i int, v uint32) {
	if i >= 0 && i < len(p.regs) {
		p.regs[i] = v
	}
}

// FReg implements arch.Proc.
func (p *Process) FReg(i int) float64 {
	if i < 0 || i >= len(p.fregs) {
		return 0
	}
	return p.fregs[i]
}

// SetFReg implements arch.Proc.
func (p *Process) SetFReg(i int, v float64) {
	if i >= 0 && i < len(p.fregs) {
		p.fregs[i] = v
	}
}

// Flag implements arch.Proc.
func (p *Process) Flag() uint32 { return p.flag }

// SetFlag implements arch.Proc.
func (p *Process) SetFlag(v uint32) { p.flag = v }

func (p *Process) seg(addr uint32, size int) (*Segment, *arch.Fault) {
	if s := p.lastSeg; s != nil && s.Contains(addr, size) {
		return s, nil
	}
	for _, s := range p.Segs {
		if s.Contains(addr, size) {
			p.memBase2, p.memData2, p.memSeg2 = p.memBase, p.memData, p.lastSeg
			p.lastSeg = s
			p.memBase, p.memData = s.Base, s.Data
			return s, nil
		}
	}
	return nil, &arch.Fault{Kind: arch.FaultSignal, Sig: arch.SigSegv, Addr: addr, PC: p.pc}
}

// Load implements arch.Proc. The last-segment check is open-coded
// here rather than delegated to seg(): Load is the hottest call the
// decoded handlers make, and the extra call frame showed up in
// profiles.
func (p *Process) Load(addr uint32, size int) (uint32, *arch.Fault) {
	s := p.lastSeg
	if s == nil || !s.Contains(addr, size) {
		var f *arch.Fault
		if s, f = p.seg(addr, size); f != nil {
			return 0, f
		}
	}
	b := s.Data[addr-s.Base:]
	switch size {
	case 4:
		if p.be {
			return uint32(b[3]) | uint32(b[2])<<8 | uint32(b[1])<<16 | uint32(b[0])<<24, nil //ldb:allow endian open-coded load in the arch's declared order; the simulators' hot path
		}
		return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, nil //ldb:allow endian open-coded load in the arch's declared order; the simulators' hot path
	case 2:
		if p.be {
			return uint32(b[1]) | uint32(b[0])<<8, nil //ldb:allow endian open-coded load in the arch's declared order; the simulators' hot path
		}
		return uint32(b[0]) | uint32(b[1])<<8, nil //ldb:allow endian open-coded load in the arch's declared order; the simulators' hot path
	}
	return uint32(b[0]), nil
}

// Store implements arch.Proc. Open-coded fast path, as in Load.
func (p *Process) Store(addr uint32, size int, v uint32) *arch.Fault {
	s := p.lastSeg
	if s == nil || !s.Contains(addr, size) {
		var f *arch.Fault
		if s, f = p.seg(addr, size); f != nil {
			return f
		}
	}
	b := s.Data[addr-s.Base:]
	switch size {
	case 4:
		if p.be {
			b[0], b[1], b[2], b[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
		} else {
			b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		}
	case 2:
		if p.be {
			b[0], b[1] = byte(v>>8), byte(v)
		} else {
			b[0], b[1] = byte(v), byte(v>>8)
		}
	default:
		b[0] = byte(v)
	}
	p.invalidate(s, addr, size)
	return nil
}

// LoadFloat implements arch.Proc.
func (p *Process) LoadFloat(addr uint32, size int) (float64, *arch.Fault) {
	n := size
	if size == amem.Float80 {
		n = 12
	}
	s, f := p.seg(addr, n)
	if f != nil {
		return 0, f
	}
	off := addr - s.Base
	return amem.DecodeFloat(p.A.Order(), s.Data[off:off+uint32(n)], size), nil
}

// StoreFloat implements arch.Proc.
func (p *Process) StoreFloat(addr uint32, size int, v float64) *arch.Fault {
	n := size
	if size == amem.Float80 {
		n = 12
	}
	s, f := p.seg(addr, n)
	if f != nil {
		return f
	}
	off := addr - s.Base
	amem.EncodeFloat(p.A.Order(), s.Data[off:off+uint32(n)], size, v)
	p.invalidate(s, addr, n)
	return nil
}

// ReadBytes copies raw memory (for the nub's fetch requests).
func (p *Process) ReadBytes(addr uint32, out []byte) error {
	s, f := p.seg(addr, len(out))
	if f != nil {
		return f
	}
	copy(out, s.Data[addr-s.Base:])
	return nil
}

// WriteBytes writes raw memory (for the nub's store requests,
// including planting breakpoints in text).
func (p *Process) WriteBytes(addr uint32, in []byte) error {
	s, f := p.seg(addr, len(in))
	if f != nil {
		return f
	}
	copy(s.Data[addr-s.Base:], in)
	p.invalidate(s, addr, len(in))
	return nil
}

// cstring reads a NUL-terminated string for the putstr syscall: the
// containing segment is resolved once and scanned for the NUL in a
// single pass, instead of one 1-byte ReadBytes (with its own segment
// lookup and allocation) per character. A string that runs off the end
// of its segment continues in the next one only if that address is
// mapped, exactly as the byte-at-a-time loop behaved.
func (p *Process) cstring(addr uint32) (string, error) {
	const limit = 1 << 16
	var out []byte
	for len(out) < limit {
		s, f := p.seg(addr, 1)
		if f != nil {
			return "", f
		}
		data := s.Data[addr-s.Base:]
		if n := limit - len(out); len(data) > n {
			data = data[:n]
		}
		if i := bytes.IndexByte(data, 0); i >= 0 {
			return string(append(out, data[:i]...)), nil
		}
		out = append(out, data...)
		addr += uint32(len(data))
	}
	return "", fmt.Errorf("machine: unterminated string at %#x", addr)
}

// syscall services a system-call fault; it returns nil when execution
// may continue.
func (p *Process) syscall(f *arch.Fault) *arch.Fault {
	a := p.A
	switch f.Code {
	case arch.SysExit:
		p.State = StateExited
		p.ExitCode = int(int32(a.SyscallArg(p, 0)))
		return &arch.Fault{Kind: arch.FaultHalt, PC: f.PC}
	case arch.SysPutInt:
		fmt.Fprintf(&p.Stdout, "%d", int32(a.SyscallArg(p, 0)))
	case arch.SysPutChar:
		p.Stdout.WriteByte(byte(a.SyscallArg(p, 0)))
	case arch.SysPutStr:
		s, err := p.cstring(a.SyscallArg(p, 0))
		if err != nil {
			return &arch.Fault{Kind: arch.FaultSignal, Sig: arch.SigSegv, Addr: a.SyscallArg(p, 0), PC: f.PC}
		}
		p.Stdout.WriteString(s)
	case arch.SysPutHex:
		fmt.Fprintf(&p.Stdout, "%x", a.SyscallArg(p, 0))
	case arch.SysPutUint:
		fmt.Fprintf(&p.Stdout, "%d", a.SyscallArg(p, 0))
	case arch.SysPutFloat:
		v, ff := p.LoadFloat(a.SyscallArg(p, 0), 8)
		if ff != nil {
			return ff
		}
		fmt.Fprintf(&p.Stdout, "%g", v)
	default:
		return &arch.Fault{Kind: arch.FaultSignal, Sig: arch.SigIll, Code: f.Code, PC: f.PC}
	}
	a.SyscallRet(p, 0)
	return nil
}

// MaxSteps bounds Run against runaway programs. It is a variable so
// tests can tighten it.
var MaxSteps int64 = 200_000_000

// Run executes until a signal arrives or the process exits. System
// calls are serviced transparently. The returned fault is FaultHalt on
// exit or FaultSignal for the nub. The cached engine runs superblocks
// through runFused and takes one checked step() wherever no block
// forms or the step limit draws near; the uncached engine
// (NoPredecode) runs every instruction through step().
func (p *Process) Run() *arch.Fault {
	if p.State == StateExited {
		return &arch.Fault{Kind: arch.FaultHalt, PC: p.pc}
	}
	p.State = StateRunning
	for {
		var f *arch.Fault
		if !p.NoPredecode {
			f = p.runFused(p.ckLimit())
		}
		if f == nil {
			if p.ckEvery > 0 && p.Steps >= p.ckNext {
				p.autoCheckpoint()
				continue
			}
			p.Steps++
			if p.Steps > MaxSteps {
				p.State = StateStopped
				return &arch.Fault{Kind: arch.FaultSignal, Sig: arch.SigIll, Code: -1, PC: p.pc}
			}
			f = p.step()
			if f == nil {
				continue
			}
		}
		if f.Kind == arch.FaultSyscall {
			if hf := p.syscall(f); hf != nil {
				if hf.Kind == arch.FaultHalt {
					p.State = StateExited
				} else {
					p.State = StateStopped
				}
				return hf
			}
			continue
		}
		if f.Kind == arch.FaultHalt {
			p.State = StateExited
		} else {
			p.State = StateStopped
		}
		return f
	}
}

// StepOne executes exactly one instruction (servicing a syscall if one
// occurs) and returns the fault, if any.
func (p *Process) StepOne() *arch.Fault {
	p.Steps++
	f := p.step()
	if f != nil && f.Kind == arch.FaultSyscall {
		return p.syscall(f)
	}
	return f
}
