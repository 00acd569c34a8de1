// Package arch defines the interface between ldb and its target
// architectures. Machine-independent code manipulates machine-dependent
// *data* wherever possible (§4 of the paper): the breakpoint
// implementation needs only four items of data per target, the context
// code is parameterized by a layout description, and only stepping,
// encoding, and stack walking need per-target code.
//
// The four targets — MIPS R3000, SPARC, Motorola 68020, and VAX — are
// implemented as instruction-set simulators in subpackages. They differ
// in byte order (MIPS is configurable, SPARC and 68020 are big-endian,
// VAX is little-endian), instruction width (4 bytes on MIPS and SPARC,
// 2 on the 68020, 1-byte opcodes on the VAX), frame-pointer discipline
// (the MIPS has none and needs the runtime procedure table), and context
// layout.
package arch

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
)

// Signal numbers delivered by the simulated OS, matching the UNIX
// numbers ldb's nub would see.
type Signal int

// The signals a target can raise.
const (
	SigNone Signal = 0
	SigIll  Signal = 4  // illegal instruction
	SigTrap Signal = 5  // breakpoint or pause trap
	SigFPE  Signal = 8  // arithmetic fault (integer divide by zero)
	SigBus  Signal = 10 // unaligned or wild access (unused by default)
	SigSegv Signal = 11 // reference outside mapped segments
)

func (s Signal) String() string {
	switch s {
	case SigNone:
		return "0"
	case SigIll:
		return "SIGILL"
	case SigTrap:
		return "SIGTRAP"
	case SigFPE:
		return "SIGFPE"
	case SigBus:
		return "SIGBUS"
	case SigSegv:
		return "SIGSEGV"
	}
	return fmt.Sprintf("SIG(%d)", int(s))
}

// FaultKind classifies why execution stopped.
type FaultKind int

// Fault kinds.
const (
	FaultSignal  FaultKind = iota // a signal; the nub takes over
	FaultSyscall                  // a system-call trap; the OS layer services it
	FaultHalt                     // the process exited
)

// Trap codes with architectural meaning. Code 0 is the code a planted
// breakpoint raises; the pause trap is executed by the startup code
// before main (§4.3: each machine has a different one-line "pause"
// procedure).
const (
	TrapBreakpoint = 0
	TrapPause      = 126
	// TrapStep is the code the nub reports for an MStepInst stop: the
	// single instruction retired without faulting. Like the pause trap,
	// it is a convention between nub and debugger, not a real trap the
	// hardware raises.
	TrapStep = 125
)

// Fault reports why execution stopped.
type Fault struct {
	Kind FaultKind
	Sig  Signal
	Code int    // trap code or syscall number
	Addr uint32 // faulting address, when meaningful
	PC   uint32 // pc of the faulting instruction
	// Len is the length in bytes of the trapping instruction, when the
	// architecture reports it; the nub uses it to step past its own
	// pause trap. Planted breakpoints use PCAdvance instead (§3).
	Len uint32
}

func (f *Fault) Error() string {
	switch f.Kind {
	case FaultSyscall:
		return fmt.Sprintf("syscall %d at %#x", f.Code, f.PC)
	case FaultHalt:
		return fmt.Sprintf("halt at %#x", f.PC)
	default:
		return fmt.Sprintf("%v (code %d) at pc=%#x addr=%#x", f.Sig, f.Code, f.PC, f.Addr)
	}
}

// Proc is the processor-state access an Arch needs to execute
// instructions. machine.Process implements it.
type Proc interface {
	PC() uint32
	SetPC(uint32)
	Reg(i int) uint32
	SetReg(i int, v uint32)
	FReg(i int) float64
	SetFReg(i int, v float64)
	// Flag is a status word each architecture uses as it pleases
	// (condition codes, floating compare bits). It is saved in contexts.
	Flag() uint32
	SetFlag(uint32)
	// Load and Store access memory in the target byte order; size is
	// 1, 2, or 4 bytes.
	Load(addr uint32, size int) (uint32, *Fault)
	Store(addr uint32, size int, v uint32) *Fault
	// LoadFloat and StoreFloat access floats of logical size 4, 8, or
	// 10 (the 80-bit format occupies 12 bytes) in the target format.
	LoadFloat(addr uint32, size int) (float64, *Fault)
	StoreFloat(addr uint32, size int, v float64) *Fault
}

// ContextLayout describes where the nub saves processor state in a
// context record (§4.1: "the code that fetches and stores fields of a
// context is machine-independent, but is parameterized by a
// machine-dependent description of those fields").
type ContextLayout struct {
	Size     int
	PCOff    int
	FlagOff  int
	RegOffs  []int // byte offset of each general register
	FRegOffs []int // byte offset of each floating register
	// FRegSize is the storage footprint of one saved floating register
	// (8, or 12 for the 68020's extended format).
	FRegSize int
	// FloatWordSwap reproduces the big-endian MIPS kernel quirk (§4.3
	// footnote): doubleword floating values are stored most significant
	// word first, except that the kernel saves floating registers in a
	// struct sigcontext least significant word first.
	FloatWordSwap bool
}

// Arch describes one target architecture.
type Arch interface {
	Name() string
	Order() binary.ByteOrder
	WordSize() int

	// The four items of machine-dependent data the breakpoint
	// implementation needs (§3): the bit patterns used for break and
	// no-op, the type (width) used to fetch and store instructions, and
	// the amount to advance the program counter after "interpreting"
	// the no-op.
	BreakInstr() []byte
	NopInstr() []byte
	InstrSize() int
	PCAdvance() int64

	NumRegs() int
	NumFRegs() int
	RegName(i int) string
	SPReg() int
	// FPReg returns the frame-pointer register, or -1 on machines
	// without one (the MIPS uses a virtual frame pointer, §4.1).
	FPReg() int
	RetReg() int
	// LinkReg returns the register holding the return address after a
	// call, or -1 on machines that push it on the stack.
	LinkReg() int

	Context() ContextLayout

	// Decode examines the instruction starting at code[off] (code is
	// the raw segment image in the target's byte order; pc is the
	// virtual address of code[off]) and returns its predecoded form. It
	// is the only statement of the architecture's instruction semantics:
	// the simulator executes nothing but what Decode returns. A nil
	// result means the bytes at off are not a complete legal
	// instruction in code, and the simulator raises SIGILL at pc.
	//
	// Decode must be free of side effects on the processor state:
	// operand modes that write registers (the VAX's autoincrement) defer
	// those writes to Exec time.
	Decode(code []byte, off int, pc uint32) *DecodedInsn

	// SyscallArg reads argument i of a system call per the target's
	// convention; SyscallRet delivers the result.
	SyscallArg(p Proc, i int) uint32
	SyscallRet(p Proc, v uint32)
}

// InsnFlags is decode-time metadata about an instruction's control
// flow. It is machine-dependent *data* in the paper's sense: the
// machine-independent superblock builder asks only "can this
// instruction end up anywhere other than pc+Len?", and each decoder
// answers for its own encoding.
type InsnFlags uint8

const (
	// InsnTerm marks an instruction that may not fall through to
	// pc+Len: branches (taken or not), jumps, calls, returns, traps,
	// syscalls, and halts. A superblock run ends at the first InsnTerm
	// instruction; everything else is guaranteed to return (pc+Len, nil)
	// on success, which is what licenses fusing it into the middle of a
	// block.
	InsnTerm InsnFlags = 1 << iota
)

// DecodedInsn is one predecoded instruction: the bit fields are
// extracted, immediates sign-extended, and branch targets computed once
// at decode time, so executing the instruction again costs no
// fetch/decode pass. Each instruction states its semantics exactly once:
// as a machine-independent micro-op (Uop) when one exists, otherwise as
// an Exec closure — never both. Len is the instruction's size in bytes
// — variable on the 68020 and VAX — which the decode cache uses to
// invalidate entries covered by a text write; it is never zero, so a
// zero Len marks an empty cache slot.
type DecodedInsn struct {
	// Exec executes the instruction against the current processor
	// state. pc is the instruction's own address (the cache guarantees
	// an entry only ever executes at the pc it was decoded for) and
	// regs and flag are the backing general-register file and condition
	// flags — the same storage Proc.Reg, Proc.SetReg, Proc.Flag, and
	// Proc.SetFlag expose, passed directly so the handlers skip the
	// interface dispatch. On success Exec returns the next pc and nil,
	// and the caller commits the pc; on a fault it returns the fault and
	// the caller leaves the pc alone (handlers that must advance it
	// first, like syscalls, call p.SetPC themselves). Nil when Uop is
	// set.
	Exec func(p Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *Fault)
	Len  uint32
	// Flags carries the control-flow metadata the superblock builder
	// consumes; a zero value means "always falls through to pc+Len".
	Flags InsnFlags
	// Uop, when not UopNone, is the instruction's machine-independent
	// micro-op, which the simulator's one executor runs — in fused
	// superblocks and single steps alike — with no indirect call.
	// Instructions without one (floats, divides, traps, and the like)
	// carry Exec instead.
	Uop        Uop
	UD, US, UT uint8
	UImm       uint32
}

// Uop enumerates the machine-independent micro-ops: register-file
// arithmetic, NZC compares, sized memory accesses, and control
// transfers, the operations the back ends share once decode has
// resolved registers and immediates. The destination UD, sources US/UT, and immediate UImm
// are pre-extracted; immediates arrive already sign- or zero-extended
// and shift counts pre-masked, so the executor applies the operation
// verbatim. Register 0 may appear as an unused source only when the
// back end guarantees it reads as zero (the MIPS r0 / SPARC %g0
// convention); back ends without such a register pass explicit
// operands.
type Uop uint8

const (
	UopNone   Uop = iota // no micro-op: the instruction carries Exec
	UopNop               // retires with no architectural effect (discarded destination)
	UopConst             // UD = UImm
	UopAddI              // UD = US + UImm
	UopAdd               // UD = US + UT
	UopSub               // UD = US - UT
	UopAnd               // UD = US & UT
	UopAndI              // UD = US & UImm
	UopOr                // UD = US | UT
	UopOrI               // UD = US | UImm
	UopXor               // UD = US ^ UT
	UopXorI              // UD = US ^ UImm
	UopNor               // UD = ^(US | UT)
	UopMul               // UD = US * UT
	UopShlI              // UD = US << UImm
	UopShrI              // UD = US >> UImm (logical)
	UopSarI              // UD = US >> UImm (arithmetic)
	UopShl               // UD = US << (UT & 31)
	UopShr               // UD = US >> (UT & 31) (logical)
	UopSar               // UD = US >> (UT & 31) (arithmetic)
	UopSltI              // UD = int32(US) < int32(UImm)
	UopSlt               // UD = int32(US) < int32(UT)
	UopSltu              // UD = US < UT (unsigned)
	UopCmp               // flags = SubFlags(US, UT)
	UopCmpI              // flags = SubFlags(US, UImm)
	UopSubCC             // UD = US - UT, flags = SubFlags(US, UT)
	UopSubCCI            // UD = US - UImm, flags = SubFlags(US, UImm)
	UopLd32              // UD = mem32[US + UT + UImm]
	UopLd16U             // UD = zext(mem16[US + UT + UImm])
	UopLd16S             // UD = sext(mem16[US + UT + UImm])
	UopLd8U              // UD = zext(mem8[US + UT + UImm])
	UopLd8S              // UD = sext(mem8[US + UT + UImm])
	UopSt32              // mem32[US + UT + UImm] = UD
	UopSt16              // mem16[US + UT + UImm] = UD (low half)
	UopSt8               // mem8[US + UT + UImm] = UD (low byte)

	// Terminator micro-ops: control transfers compiled inline. TermUop
	// marks the instruction InsnTerm, so a fused run ends with it;
	// instead of falling through, the op computes the successor pc
	// (branches not taken fall through to pc+Len). In the link forms UT
	// is the byte offset of the return address past the instruction's
	// own address: 4 on MIPS (jal links pc+4), 0 on SPARC (call links its
	// own address). Terminators sit at the end of the enum so Term can
	// test membership by ordering.
	UopJmp     // next = UImm
	UopJmpL    // UD = pc + UT (link offset); next = UImm
	UopJmpInd  // next = US + UT + UImm (register values; UT a register)
	UopJmpIndL // t := US + UImm; UD = pc + UT (link offset); next = t
	UopBeq     // next = UImm if US == UT else pc+Len
	UopBne     // next = UImm if US != UT else pc+Len
	UopBlt     // next = UImm if int32(US) < int32(UT) else pc+Len
	UopBge     // next = UImm if int32(US) >= int32(UT) else pc+Len
	UopBle     // next = UImm if int32(US) <= int32(UT) else pc+Len
	UopBgt     // next = UImm if int32(US) > int32(UT) else pc+Len
	UopBcc     // next = UImm if UD>>(flags&7)&1 != 0 else pc+Len (truth table over NZC)
)

// Term reports whether u is a terminator micro-op: one that computes
// the successor pc rather than falling through.
func (u Uop) Term() bool {
	return u >= UopJmp
}

// SubFlags computes the generic NZC condition flags for the comparison
// a - b, in the shared encoding the compare micro-ops and the
// flag-setting back ends agree on: bit 0 set when equal, bit 1 when
// signed less-than, bit 2 when unsigned less-than.
func SubFlags(a, b uint32) uint32 {
	var fl uint32
	if a == b {
		fl |= 1
	}
	if int32(a) < int32(b) {
		fl |= 2
	}
	if a < b {
		fl |= 4
	}
	return fl
}

// AluUop attaches a register-writing arithmetic micro-op. A discarded
// destination (rd < 0, the predecode of a MIPS r0 / SPARC %g0 write)
// compiles to UopNop: the write is architecturally suppressed and
// arithmetic operands are side-effect-free, so the instruction retires
// with no effect.
func (d *DecodedInsn) AluUop(op Uop, rd, rs, rt int, imm uint32) *DecodedInsn {
	if rd < 0 {
		d.Uop = UopNop
		return d
	}
	d.Uop, d.UD, d.US, d.UT, d.UImm = op, uint8(rd), uint8(rs), uint8(rt), imm
	return d
}

// FlagUop attaches a flag-only micro-op (compares): no destination.
func (d *DecodedInsn) FlagUop(op Uop, rs, rt int, imm uint32) *DecodedInsn {
	d.Uop, d.US, d.UT, d.UImm = op, uint8(rs), uint8(rt), imm
	return d
}

// TermUop attaches a terminator micro-op and marks the instruction
// InsnTerm. Field meanings are per-op (see the Uop constants); the
// caller passes only the fields its op reads and zeros for the rest —
// there is no discarded-destination suppression here, because the jump
// itself must still happen, so call sites with a discarded link
// register pick the link-free op instead.
func (d *DecodedInsn) TermUop(op Uop, rd, rs, rt int, imm uint32) *DecodedInsn {
	d.Uop, d.UD, d.US, d.UT, d.UImm = op, uint8(rd), uint8(rs), uint8(rt), imm
	d.Flags |= InsnTerm
	return d
}

// MemUop attaches a load or store micro-op. rd is a real register: the
// loaded value's destination, or for stores the value register. A load
// whose destination is discarded has no micro-op — the access must
// still fault — so back ends state that case as an Exec closure.
func (d *DecodedInsn) MemUop(op Uop, rd, rs, rt int, imm uint32) *DecodedInsn {
	d.Uop, d.UD, d.US, d.UT, d.UImm = op, uint8(rd), uint8(rs), uint8(rt), imm
	return d
}

// RegWrite stores v into register r unless r is a hardwired-zero
// register slot (r < 0 suppresses the write; MIPS and SPARC pass -1
// for their r0/g0 destinations at decode time). It is the hoisted form
// of the per-step setReg closures the interpreters used to rebuild on
// every instruction.
func RegWrite(regs []uint32, r int, v uint32) {
	if r >= 0 {
		regs[r] = v
	}
}

// TextKey identifies the immutable decode products of one text segment:
// the architecture that decodes it plus a content hash of the bytes.
// Two processes running the same binary on the same ISA produce equal
// keys, which is what licenses sharing their predecoded instructions
// (text always loads at the same base, so even absolute pcs baked into
// decode closures agree). A planted breakpoint changes the bytes and
// therefore the key, so sessions that have mutated text can never
// publish into — or adopt from — the pristine entry.
type TextKey struct {
	Arch string
	Sum  [sha256.Size]byte
}

// SumText computes the shared-cache key for a text segment's current
// contents under the named architecture.
func SumText(archName string, text []byte) TextKey {
	return TextKey{Arch: archName, Sum: sha256.Sum256(text)}
}

var (
	regMu    sync.Mutex //ldb:lock arch.registry 50
	registry = make(map[string]Arch)
)

// Register adds an architecture to the registry; the four target
// packages call it from init.
func Register(a Arch) {
	regMu.Lock()
	defer regMu.Unlock()
	registry[a.Name()] = a
}

// Lookup finds a registered architecture by name.
func Lookup(name string) (Arch, bool) {
	regMu.Lock()
	defer regMu.Unlock()
	a, ok := registry[name]
	return a, ok
}

// Names lists the registered architectures, sorted.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	var out []string
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// RelocKind identifies a relocation applied by the linker.
type RelocKind int

// Relocation kinds used by the four assemblers.
const (
	RelAbs32 RelocKind = iota // 32-bit absolute address
	RelHi16                   // high 16 bits of an absolute address (MIPS lui)
	RelLo16                   // low 16 bits of an absolute address
	RelPC26                   // MIPS jal: word offset in 26 bits
	RelPC30                   // SPARC call: word displacement in 30 bits
	RelPC32                   // 32-bit pc-relative displacement
	RelHi22                   // SPARC sethi: high 22 bits
	RelLo10                   // SPARC or-immediate: low 10 bits
)

// Reloc asks the linker to patch the bytes at Off once Sym's address is
// known.
type Reloc struct {
	Off  int
	Kind RelocKind
	Sym  string
	Add  int64
}

// Syscall numbers serviced by the simulated OS.
const (
	SysExit     = 1
	SysPutInt   = 2
	SysPutChar  = 3
	SysPutStr   = 4 // arg is the address of a NUL-terminated string
	SysPutFloat = 5 // arg is the address of a double
	SysPutHex   = 6 // value printed as lowercase hexadecimal
	SysPutUint  = 7 // value printed as unsigned decimal
)
