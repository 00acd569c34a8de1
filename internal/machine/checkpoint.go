// Checkpoints: a Process can fork an immutable copy-on-write snapshot
// of its entire state — memory (page-granular, O(dirty pages) per
// checkpoint via amem's Shadow), registers, lifecycle, simulator
// accounting — and later restore it in place or rebuild a fresh process
// from it. The simulators are deterministic, so a checkpoint plus a
// compact log of externally-visible inputs since it (nub stores,
// breakpoint plants, resume requests) reaches any later point by
// bounded re-execution; the nub records and replays that log, the
// machine only carries it. Periodic auto-checkpointing rides Run at a
// configurable instruction interval: the pacing is folded into the
// existing step limit, so the superblock fast path is untouched between
// checkpoints.
package machine

import (
	"encoding/binary"
	"fmt"

	"ldb/internal/amem"
	"ldb/internal/arch"
)

// EventKind labels one replayable input in a checkpoint's event log.
type EventKind uint8

// Event kinds: the externally-visible inputs that can change target
// state between checkpoints, mirroring the nub's mutating requests.
const (
	EvStoreInt EventKind = iota + 1
	EvStoreFloat
	EvStoreBytes
	EvPlant
	EvUnplant
	EvContinue // resume request: restore the context area, then run
	EvStep     // resume request: restore the context area, then step
	EvResume   // bare resume (no context restore): the checkpoint was taken mid-run
)

// Event is one replayable input. The fields mirror the wire request the
// nub originally served, so replaying an event through the same handler
// reproduces exactly the original semantics (space checks, float
// quirks, plant bookkeeping included).
type Event struct {
	Kind  EventKind
	Space byte
	Addr  uint32
	Size  uint32
	Val   uint64
	Data  []byte
}

// SegSnapshot is the immutable snapshot of one segment.
type SegSnapshot struct {
	Name string
	Base uint32
	Mem  *amem.PageMap
}

// Checkpoint bundles everything needed to reconstruct a Process — and,
// with the nub-owned Planted and Events fields filled in, a whole debug
// session — at the moment it was taken. The snapshot itself is
// immutable; Events is the log of inputs accepted after it, which the
// nub appends to and replays.
type Checkpoint struct {
	Arch     string
	Steps    int64
	PC       uint32
	Flag     uint32
	State    State
	ExitCode int
	Regs     []uint32
	FRegs    []float64
	Stdout   []byte
	Sim      SimStats
	Segs     []SegSnapshot

	// Planted is the debug layer's planted-breakpoint set (address →
	// overwritten bytes); the nub fills it, the machine carries it.
	Planted map[uint32][]byte
	// Events is the log of externally-visible inputs accepted since the
	// snapshot, in order. Replaying it through the nub's handlers
	// re-derives any later state.
	Events []Event
}

// DefaultCheckpointInterval is the auto-checkpoint pacing Run uses when
// the caller does not choose one: every 2^20 executed instructions.
const DefaultCheckpointInterval = 1 << 20

// EnableCheckpoints arms page-granular dirty tracking on every segment,
// so TakeCheckpoint costs O(pages written since the last one). Stores
// pay one predictable branch per access once armed.
func (p *Process) EnableCheckpoints() {
	for _, s := range p.Segs {
		if s.shadow == nil {
			s.shadow = amem.NewShadow(len(s.Data))
		}
	}
}

// SetAutoCheckpoint installs fn to be called from Run's outer loop
// every `every` executed instructions (0 means
// DefaultCheckpointInterval, negative disables). fn runs between fused
// blocks with the process state fully committed, so it may call
// TakeCheckpoint.
func (p *Process) SetAutoCheckpoint(every int64, fn func()) {
	if every == 0 {
		every = DefaultCheckpointInterval
	}
	if every < 0 {
		p.ckEvery, p.ckFn = 0, nil
		return
	}
	p.ckEvery, p.ckFn = every, fn
	p.ckNext = p.Steps + every
}

// autoCheckpoint fires the pacing callback and schedules the next one.
func (p *Process) autoCheckpoint() {
	p.ckNext = p.Steps + p.ckEvery
	if p.ckFn != nil {
		p.ckFn()
	}
}

// ckLimit folds the next auto-checkpoint into the run step limit.
func (p *Process) ckLimit() int64 {
	limit := MaxSteps
	if p.ckEvery > 0 && p.ckNext < limit {
		limit = p.ckNext
	}
	return limit
}

// TakeCheckpoint forks an immutable snapshot of the process. The first
// call arms dirty tracking and copies everything; later calls copy only
// pages written since the previous checkpoint and share the rest.
//
//ldb:deterministic
func (p *Process) TakeCheckpoint() *Checkpoint {
	p.EnableCheckpoints()
	ck := &Checkpoint{
		Arch:     p.A.Name(),
		Steps:    p.Steps,
		PC:       p.pc,
		Flag:     p.flag,
		State:    p.State,
		ExitCode: p.ExitCode,
		Regs:     append([]uint32(nil), p.regs...),
		FRegs:    append([]float64(nil), p.fregs...),
		Stdout:   append([]byte(nil), p.Stdout.Bytes()...),
		Sim:      p.Sim,
	}
	for _, s := range p.Segs {
		ck.Segs = append(ck.Segs, SegSnapshot{Name: s.Name, Base: s.Base, Mem: s.shadow.Fork(s.Data)})
	}
	return ck
}

// Restore rewinds the process in place to a checkpoint taken from it
// (or from an identically shaped process). Decode and superblock caches
// over restored segments are dropped — the restored bytes may disagree
// with them — and the memory fast-path windows are reset.
func (p *Process) Restore(ck *Checkpoint) error {
	if ck.Arch != p.A.Name() {
		return fmt.Errorf("machine: checkpoint for %q restored into %q process", ck.Arch, p.A.Name())
	}
	if len(ck.Segs) != len(p.Segs) {
		return fmt.Errorf("machine: checkpoint has %d segments, process has %d", len(ck.Segs), len(p.Segs))
	}
	for i, snap := range ck.Segs {
		s := p.Segs[i]
		if snap.Name != s.Name || snap.Base != s.Base || snap.Mem.Len() != len(s.Data) {
			return fmt.Errorf("machine: checkpoint segment %q@%#x/%d does not match %q@%#x/%d",
				snap.Name, snap.Base, snap.Mem.Len(), s.Name, s.Base, len(s.Data))
		}
	}
	for i, snap := range ck.Segs {
		s := p.Segs[i]
		snap.Mem.CopyTo(s.Data)
		s.decoded = nil
		s.sblocks = nil
		s.ro = false
		s.gen++
		if s.shadow != nil {
			s.shadow.Reset(snap.Mem)
		}
	}
	copy(p.regs, ck.Regs)
	copy(p.fregs, ck.FRegs)
	p.pc = ck.PC
	p.flag = ck.Flag
	p.State = ck.State
	p.ExitCode = ck.ExitCode
	p.Steps = ck.Steps
	p.Sim = ck.Sim
	p.Stdout.Reset()
	p.Stdout.Write(ck.Stdout)
	p.lastSeg, p.lastText = nil, nil
	p.memBase, p.memData = 0, nil
	p.memBase2, p.memData2, p.memSeg2 = 0, nil, nil
	if p.ckEvery > 0 {
		p.ckNext = p.Steps + p.ckEvery
	}
	return nil
}

// FromCheckpoint rebuilds a fresh Process from a checkpoint — the
// resurrection path. Dirty tracking is armed against the checkpoint's
// own pages, so the first checkpoint of the resurrected process is
// again O(dirty).
func FromCheckpoint(ck *Checkpoint) (*Process, error) {
	a, ok := arch.Lookup(ck.Arch)
	if !ok {
		return nil, fmt.Errorf("machine: checkpoint names unknown architecture %q", ck.Arch)
	}
	p := &Process{
		A:        a,
		regs:     make([]uint32, a.NumRegs()),
		fregs:    make([]float64, a.NumFRegs()),
		pc:       ck.PC,
		flag:     ck.Flag,
		State:    ck.State,
		ExitCode: ck.ExitCode,
		Steps:    ck.Steps,
		Sim:      ck.Sim,
	}
	p.be = a.Order() == binary.BigEndian //ldb:allow endian caches the arch's declared order for the hot load/store path, as New does
	p.slotShift = slotShift(a)
	copy(p.regs, ck.Regs)
	copy(p.fregs, ck.FRegs)
	p.Stdout.Write(ck.Stdout)
	for _, snap := range ck.Segs {
		s := &Segment{Name: snap.Name, Base: snap.Base, Data: snap.Mem.Materialize()}
		s.shadow = amem.NewShadow(len(s.Data))
		s.shadow.Reset(snap.Mem)
		p.Segs = append(p.Segs, s)
	}
	return p, nil
}
