// Crash-only sessions, nub side. A session checkpoint is the machine's
// copy-on-write process snapshot plus the debug-layer state that lives
// in the nub: the planted-breakpoint set and the latched stop event.
// This file carries the nub's three checkpoint duties — forking one
// (Checkpoint), rewinding to one (RestoreCheckpoint), and re-applying
// the event log through the nub's own handlers (ReplayEvent), so a
// replay reproduces exactly the original request semantics: space
// checks, float quirks, plant bookkeeping, and panic containment
// included — and the serialized form the debug service passivates
// evicted sessions into. The decoder trusts nothing: it is fuzzed with
// hostile bytes and must return errors, never panic.
package nub

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"ldb/internal/amem"
	"ldb/internal/machine"
)

// Checkpoint forks a session-level checkpoint: the immutable process
// snapshot plus a copy of the nub's planted-breakpoint set.
func (n *Nub) Checkpoint() *machine.Checkpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.checkpointLocked()
}

// checkpointLocked is Checkpoint for callers already holding n.mu — the
// service's auto-checkpoint callback fires from inside Run, where the
// serving path holds the lock.
func (n *Nub) checkpointLocked() *machine.Checkpoint {
	ck := n.P.TakeCheckpoint()
	ck.Planted = make(map[uint32][]byte, len(n.planted))
	for addr, old := range n.planted {
		ck.Planted[addr] = append([]byte(nil), old...)
	}
	return ck
}

// RestoreCheckpoint rewinds the session to a checkpoint taken from it:
// process state, planted set, and the latched stop event all return to
// the moment the checkpoint was taken. A dead nub comes back alive —
// rollback is how a crashed request un-happens, and a checkpoint never
// captures a dead session.
func (n *Nub) RestoreCheckpoint(ck *machine.Checkpoint, pending *Msg) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.P.Restore(ck); err != nil {
		return err
	}
	n.planted = make(map[uint32][]byte, len(ck.Planted))
	for addr, old := range ck.Planted {
		n.planted[addr] = append([]byte(nil), old...)
	}
	n.pending = pending
	n.dead = false
	return nil
}

// ReplayEvent re-applies one logged input. Stores and plants go through
// safeHandle — the same validate-and-contain path that served them the
// first time — so a replayed request that failed originally fails
// identically and changes nothing. Resume events reproduce
// serveOneLocked's exact behavior, including leaving the pending event
// untouched when the target has already exited.
func (n *Nub) ReplayEvent(ev machine.Event) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.replayEventLocked(ev)
}

func (n *Nub) replayEventLocked(ev machine.Event) {
	switch ev.Kind {
	case machine.EvStoreInt:
		n.safeHandle(&Msg{Kind: MStoreInt, Space: ev.Space, Addr: ev.Addr, Size: ev.Size, Val: ev.Val}, nil)
	case machine.EvStoreFloat:
		n.safeHandle(&Msg{Kind: MStoreFloat, Space: ev.Space, Addr: ev.Addr, Size: ev.Size, Val: ev.Val}, nil)
	case machine.EvStoreBytes:
		n.safeHandle(&Msg{Kind: MStoreBytes, Space: ev.Space, Addr: ev.Addr, Size: ev.Size, Data: ev.Data}, nil)
	case machine.EvPlant:
		n.safeHandle(&Msg{Kind: MPlantStore, Space: ev.Space, Addr: ev.Addr, Size: ev.Size, Data: ev.Data}, nil)
	case machine.EvUnplant:
		n.safeHandle(&Msg{Kind: MUnplantStore, Space: ev.Space, Addr: ev.Addr, Size: ev.Size}, nil)
	case machine.EvContinue, machine.EvStep:
		if n.P.State == machine.StateExited {
			return
		}
		step := ev.Kind == machine.EvStep
		n.resumeAndLatch(func() {
			if rerr := n.restoreContext(); rerr != nil {
				n.latchCtxFault(n.P.PC())
				return
			}
			if step {
				n.stepAndLatch()
			} else {
				n.runAndLatch()
			}
		})
	case machine.EvResume:
		// The checkpoint was taken mid-run: resume without a context
		// restore — the registers in the checkpoint ARE the live state.
		if n.P.State == machine.StateExited {
			return
		}
		n.resumeAndLatch(n.runAndLatch)
	}
}

// sessionCheckpoint is the deserialized form of a passivated session:
// the checkpoint, the program name it was opened from, and the stop
// event that was latched when it was passivated.
type sessionCheckpoint struct {
	program string
	ck      *machine.Checkpoint
	pending *Msg
}

// ckMagic versions the passivation format. Bumping it (ldbck2, ...)
// invalidates stored checkpoints instead of misparsing them.
const ckMagic = "ldbck1"

// Decoder bounds. A passivated blob is read back from an in-service
// store or a spill directory, but the fuzzer feeds the decoder
// arbitrary bytes, so every count is capped before it sizes an
// allocation or a loop.
const (
	maxCkStr     = 4096    // program, arch, and segment names
	maxCkRegs    = 1024    // integer or float register file
	maxCkSegs    = 64      // segments per process
	maxCkSegLen  = 1 << 26 // bytes per segment
	maxCkEvents  = 1 << 16 // replay-log entries
	maxCkPlanted = 1 << 16 // planted breakpoints
)

func wu8(b *bytes.Buffer, v byte) { b.WriteByte(v) }
func wu32(b *bytes.Buffer, v uint32) {
	var r [4]byte
	binary.LittleEndian.PutUint32(r[:], v)
	b.Write(r[:])
}
func wu64(b *bytes.Buffer, v uint64) {
	var r [8]byte
	binary.LittleEndian.PutUint64(r[:], v)
	b.Write(r[:])
}
func wstr(b *bytes.Buffer, s string) { wu32(b, uint32(len(s))); b.WriteString(s) }

// encodeCheckpoint serializes a session checkpoint. Segment memory goes
// out sparsely — only the non-nil pages of each copy-on-write PageMap —
// so a passivated session with a mostly-zero stack costs bytes
// proportional to what it actually touched. The encoding is
// deterministic (planted breakpoints sorted by address), little-endian
// throughout like the wire protocol it rides beside.
//
//ldb:deterministic
func encodeCheckpoint(program string, ck *machine.Checkpoint, pending *Msg) []byte {
	var b bytes.Buffer
	b.WriteString(ckMagic)
	wstr(&b, program)
	wstr(&b, ck.Arch)
	wu64(&b, uint64(ck.Steps))
	wu32(&b, ck.PC)
	wu32(&b, ck.Flag)
	wu8(&b, byte(ck.State))
	wu32(&b, uint32(int32(ck.ExitCode)))
	wu32(&b, uint32(len(ck.Regs)))
	for _, r := range ck.Regs {
		wu32(&b, r)
	}
	wu32(&b, uint32(len(ck.FRegs)))
	for _, f := range ck.FRegs {
		wu64(&b, math.Float64bits(f))
	}
	wu32(&b, uint32(len(ck.Stdout)))
	b.Write(ck.Stdout)
	for _, v := range []int64{ck.Sim.Hits, ck.Sim.Decodes, ck.Sim.Invalidations, ck.Sim.Fallbacks, ck.Sim.Blocks, ck.Sim.BlockInsns} {
		wu64(&b, uint64(v))
	}
	wu32(&b, uint32(len(ck.Segs)))
	for _, seg := range ck.Segs {
		wstr(&b, seg.Name)
		wu32(&b, seg.Base)
		wu32(&b, uint32(seg.Mem.Len()))
		present := 0
		for i := 0; i < seg.Mem.NumPages(); i++ {
			if seg.Mem.Page(i) != nil {
				present++
			}
		}
		wu32(&b, uint32(present))
		for i := 0; i < seg.Mem.NumPages(); i++ {
			pg := seg.Mem.Page(i)
			if pg == nil {
				continue
			}
			wu32(&b, uint32(i))
			wu32(&b, uint32(len(pg)))
			b.Write(pg)
		}
	}
	addrs := make([]uint32, 0, len(ck.Planted))
	for addr := range ck.Planted {
		addrs = append(addrs, addr)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	wu32(&b, uint32(len(addrs)))
	for _, addr := range addrs {
		old := ck.Planted[addr]
		wu32(&b, addr)
		wu32(&b, uint32(len(old)))
		b.Write(old)
	}
	if pending != nil && len(pending.Data) <= maxDataLen {
		wu8(&b, 1)
		b.Write(appendMsg(b.AvailableBuffer(), pending))
	} else {
		wu8(&b, 0)
	}
	wu32(&b, uint32(len(ck.Events)))
	for _, ev := range ck.Events {
		wu8(&b, byte(ev.Kind))
		wu8(&b, ev.Space)
		wu32(&b, ev.Addr)
		wu32(&b, ev.Size)
		wu64(&b, ev.Val)
		wu32(&b, uint32(len(ev.Data)))
		b.Write(ev.Data)
	}
	return b.Bytes()
}

// ckReader cursors over an untrusted checkpoint blob. Every read is
// bounds-checked; the first failure latches an error and all further
// reads return zero values, so decode loops need no per-read error
// plumbing and can never index past the buffer.
type ckReader struct {
	b   []byte
	err error
}

func (r *ckReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("nub: checkpoint: "+format, args...)
	}
}

func (r *ckReader) u8() byte {
	if r.err != nil || len(r.b) < 1 {
		r.fail("truncated")
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *ckReader) u32() uint32 {
	if r.err != nil || len(r.b) < 4 {
		r.fail("truncated")
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *ckReader) u64() uint64 {
	if r.err != nil || len(r.b) < 8 {
		r.fail("truncated")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

// take returns the next n bytes, copied so the result never aliases the
// blob (a resurrected segment page must not share storage with a spill
// file buffer someone may reuse).
func (r *ckReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b) {
		r.fail("truncated")
		return nil
	}
	if n == 0 {
		return nil
	}
	v := append([]byte(nil), r.b[:n]...)
	r.b = r.b[n:]
	return v
}

func (r *ckReader) str(what string) string {
	n := int(r.u32())
	if r.err == nil && n > maxCkStr {
		r.fail("%s name of %d bytes", what, n)
		return ""
	}
	return string(r.take(n))
}

// decodeCheckpoint parses a passivated session blob. Hostile input —
// truncations, lying counts, oversized claims, trailing garbage —
// yields an error; it never panics and never allocates more than the
// blob's own length plus the capped fixed tables.
func decodeCheckpoint(b []byte) (*sessionCheckpoint, error) {
	r := &ckReader{b: b}
	if magic := r.take(len(ckMagic)); r.err != nil || string(magic) != ckMagic {
		return nil, fmt.Errorf("nub: checkpoint: bad magic")
	}
	sc := &sessionCheckpoint{ck: &machine.Checkpoint{}}
	ck := sc.ck
	sc.program = r.str("program")
	ck.Arch = r.str("arch")
	ck.Steps = int64(r.u64())
	ck.PC = r.u32()
	ck.Flag = r.u32()
	ck.State = machine.State(r.u8())
	ck.ExitCode = int(int32(r.u32()))

	nregs := int(r.u32())
	if r.err == nil && nregs > maxCkRegs {
		r.fail("%d registers", nregs)
	}
	for i := 0; i < nregs && r.err == nil; i++ {
		ck.Regs = append(ck.Regs, r.u32())
	}
	nfregs := int(r.u32())
	if r.err == nil && nfregs > maxCkRegs {
		r.fail("%d float registers", nfregs)
	}
	for i := 0; i < nfregs && r.err == nil; i++ {
		ck.FRegs = append(ck.FRegs, math.Float64frombits(r.u64()))
	}
	nout := int(r.u32())
	if r.err == nil && nout > maxDataLen {
		r.fail("%d stdout bytes", nout)
	}
	ck.Stdout = r.take(nout)
	ck.Sim.Hits = int64(r.u64())
	ck.Sim.Decodes = int64(r.u64())
	ck.Sim.Invalidations = int64(r.u64())
	ck.Sim.Fallbacks = int64(r.u64())
	ck.Sim.Blocks = int64(r.u64())
	ck.Sim.BlockInsns = int64(r.u64())

	nsegs := int(r.u32())
	if r.err == nil && nsegs > maxCkSegs {
		r.fail("%d segments", nsegs)
	}
	for i := 0; i < nsegs && r.err == nil; i++ {
		name := r.str("segment")
		base := r.u32()
		slen := int(r.u32())
		if r.err == nil && slen > maxCkSegLen {
			r.fail("segment %q of %d bytes", name, slen)
			break
		}
		np := (slen + amem.SnapPage - 1) / amem.SnapPage
		present := int(r.u32())
		if r.err == nil && present > np {
			r.fail("segment %q claims %d of %d pages", name, present, np)
			break
		}
		pages := make([][]byte, np)
		for j := 0; j < present && r.err == nil; j++ {
			idx := int(r.u32())
			plen := int(r.u32())
			if r.err != nil {
				break
			}
			if idx >= np || plen > amem.SnapPage {
				r.fail("segment %q page %d/%d", name, idx, plen)
				break
			}
			pages[idx] = r.take(plen)
		}
		if r.err != nil {
			break
		}
		pm, err := amem.PageMapFromPages(slen, pages)
		if err != nil {
			r.fail("%v", err)
			break
		}
		ck.Segs = append(ck.Segs, machine.SegSnapshot{Name: name, Base: base, Mem: pm})
	}

	nplanted := int(r.u32())
	if r.err == nil && nplanted > maxCkPlanted {
		r.fail("%d planted breakpoints", nplanted)
	}
	ck.Planted = make(map[uint32][]byte, min(nplanted, 64))
	for i := 0; i < nplanted && r.err == nil; i++ {
		addr := r.u32()
		blen := int(r.u32())
		if r.err == nil && blen > maxDataLen {
			r.fail("planted record of %d bytes", blen)
			break
		}
		old := r.take(blen)
		if r.err == nil {
			ck.Planted[addr] = old
		}
	}

	if r.u8() != 0 && r.err == nil {
		m, n, err := parseMsg(r.b)
		if err != nil {
			r.fail("pending event: %v", err)
		} else {
			// The event outlives the blob's decode: its own copy.
			m.Data = bytes.Clone(m.Data)
			sc.pending = &m
			r.b = r.b[n:]
		}
	}

	nev := int(r.u32())
	if r.err == nil && nev > maxCkEvents {
		r.fail("%d events", nev)
	}
	for i := 0; i < nev && r.err == nil; i++ {
		var ev machine.Event
		ev.Kind = machine.EventKind(r.u8())
		ev.Space = r.u8()
		ev.Addr = r.u32()
		ev.Size = r.u32()
		ev.Val = r.u64()
		dlen := int(r.u32())
		if r.err == nil && dlen > maxDataLen {
			r.fail("event payload of %d bytes", dlen)
			break
		}
		ev.Data = r.take(dlen)
		if r.err == nil {
			ck.Events = append(ck.Events, ev)
		}
	}

	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("nub: checkpoint: %d trailing bytes", len(r.b))
	}
	return sc, nil
}
