// The decode cache: Process executes only what its architecture's
// Decode returns. Each segment lazily grows a slice of decoded entries
// with one slot per instruction-sized unit of text — per 4 bytes on
// mips and sparc, per 2 on m68k, per byte on the VAX — since no
// instruction starts between two units; entries are filled on first
// execution and consulted on every subsequent one. Any write into a
// segment that has been executed from — a data store, a planted
// breakpoint, a trap restoration — invalidates the entries the written
// bytes could cover, so the next execution at those addresses
// re-decodes what is actually in memory.
// This is the §3 retargeting seam made fast: ldb plants breakpoints by
// overwriting no-ops in text through ordinary stores, and the
// invalidation contract is what keeps plant, unplant, and stale decoded
// instructions from ever disagreeing.
package machine

import (
	"math/bits"

	"ldb/internal/arch"
)

// maxInsnBytes bounds how many bytes before a written address an
// instruction may start and still cover it: the longest instruction any
// target emits (a VAX three-operand op with long-displacement specifiers)
// is 16 bytes.
const maxInsnBytes = 16

// slotShift returns log2 of a's instruction size, the unit the decode
// and superblock caches keep one slot per.
func slotShift(a arch.Arch) uint32 {
	return uint32(bits.TrailingZeros(uint(a.InstrSize())))
}

// slots returns how many cache slots s's text needs.
func (p *Process) slots(s *Segment) int {
	return (len(s.Data) + 1<<p.slotShift - 1) >> p.slotShift
}

// SimStats counts decode-cache activity. Steps (on Process) counts
// executed instructions; here Hits is how many executed from a cached
// entry, Decodes how many had to be decoded into the cache first,
// Fallbacks how many bypassed the cache (every uncached step, plus
// each pc that is unmapped or does not decode), and Invalidations how
// many cached entries text writes destroyed. Hits is not counted on
// the hot path: every executed instruction is exactly one of a hit, a
// decode, or a fallback, so SimStats derives it from Steps. Read stats
// through Process.SimStats, which fills it in.
type SimStats struct {
	Hits          int64
	Decodes       int64
	Invalidations int64
	Fallbacks     int64
	// Blocks counts superblocks formed and BlockInsns the instructions
	// fused into them, so BlockInsns/Blocks is the mean fused-run
	// length. Both stay zero uncached; neither changes the meaning of
	// the per-instruction counters above — a fused block retiring N
	// instructions still advances Steps by N, so Hits and HitRate remain
	// comparable across engines.
	Blocks     int64
	BlockInsns int64
}

// SimStats returns the decode-cache counters with the derived Hits
// filled in. Uncached, every step is a fallback, whether or not the
// slow path bothered to count it.
func (p *Process) SimStats() SimStats {
	s := p.Sim
	if !p.NoPredecode {
		s.Hits = p.Steps - s.Decodes - s.Fallbacks
	} else {
		s.Hits, s.Fallbacks = 0, p.Steps
	}
	return s
}

// HitRate is the fraction of executed instructions served from the
// decode cache.
func (s SimStats) HitRate() float64 {
	total := s.Hits + s.Decodes + s.Fallbacks
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// step executes the one instruction at pc, as a run of one through the
// same executor superblocks use: from its decode-cache entry, decoding
// it into the cache first if need be, or with NoPredecode by decoding
// it afresh and discarding the decoded form. An unmapped pc raises
// SIGSEGV and bytes that do not decode raise SIGILL; both count as
// fallbacks.
func (p *Process) step() *arch.Fault {
	pc := p.pc
	s := p.textSeg(pc)
	if s == nil {
		p.Sim.Fallbacks++
		return &arch.Fault{Kind: arch.FaultSignal, Sig: arch.SigSegv, Addr: pc, PC: pc}
	}
	off := pc - s.Base
	var d *arch.DecodedInsn
	if p.NoPredecode {
		d = p.A.Decode(s.Data, int(off), pc)
	} else {
		d = p.cached(s, off, pc)
	}
	if d == nil {
		p.Sim.Fallbacks++
		return &arch.Fault{Kind: arch.FaultSignal, Sig: arch.SigIll, PC: pc}
	}
	run := [1]fusedOp{fuse(d, 0)}
	next, _, f := p.exec(s, run[:], pc)
	if f != nil {
		return f
	}
	p.pc = next
	return nil
}

// textSeg finds the segment holding pc, or nil when pc is unmapped, and
// remembers it for the next lookup.
func (p *Process) textSeg(pc uint32) *Segment {
	if s := p.lastText; s != nil && pc-s.Base < uint32(len(s.Data)) {
		return s
	}
	for _, s := range p.Segs {
		if pc-s.Base < uint32(len(s.Data)) {
			p.lastText = s
			return s
		}
	}
	return nil
}

// cached returns the decode-cache entry for the instruction at off,
// decoding it into the cache on a miss, or nil when the bytes there do
// not decode — which they never do off an instruction boundary, where
// the slot belongs to the instruction that starts on it.
func (p *Process) cached(s *Segment, off, pc uint32) *arch.DecodedInsn {
	if off&(1<<p.slotShift-1) != 0 {
		return nil
	}
	if s.decoded == nil {
		s.decoded = make([]arch.DecodedInsn, p.slots(s))
	}
	i := off >> p.slotShift
	d := &s.decoded[i]
	if d.Len != 0 {
		return d
	}
	dn := p.A.Decode(s.Data, int(off), pc)
	if dn == nil {
		return nil
	}
	if s.ro {
		s.privatize()
		d = &s.decoded[i]
	}
	*d = *dn
	p.Sim.Decodes++
	return d
}

// invalidate clears every cached entry that the write of n bytes at
// addr could cover. The lookback is entry-length-aware: a decoded
// instruction starts at most maxInsnBytes-1 before the written range,
// but a superblock spans a whole fused run, so a store landing
// mid-block — a breakpoint plant or unplant included — must drop the
// entire entry, and the block scan looks back as far as the longest
// block installed in the segment (Segment.maxBlock) less one byte.
// Dropping any block bumps the segment generation, which severs
// predicted-successor links and aborts a block caught mid-execution.
// Segments never executed from carry no caches and cost two nil checks.
func (p *Process) invalidate(s *Segment, addr uint32, n int) {
	// Thin enough to inline: data and stack stores pay three nil checks,
	// not a call.
	if sh := s.shadow; sh != nil {
		sh.Mark(int(addr-s.Base), n)
	}
	if s.decoded == nil && s.sblocks == nil {
		return
	}
	p.invalidateCaches(s, addr, n)
}

func (p *Process) invalidateCaches(s *Segment, addr uint32, n int) {
	if n <= 0 {
		return
	}
	// A shared decoded slice must be copied before entries are cleared:
	// the other processes referencing it did not write these bytes.
	s.privatize()
	// Slots are converted from byte offsets: an entry can start no
	// earlier than the lookback and must start before the range ends.
	lo := addr - s.Base
	sh := p.slotShift
	last := (int(lo) + n - 1) >> sh
	if s.decoded != nil {
		start := max(int(lo)-(maxInsnBytes-1), 0) >> sh
		end := min(last+1, len(s.decoded))
		for i := start; i < end; i++ {
			d := &s.decoded[i]
			if d.Len == 0 {
				continue // empty slot
			}
			if uint32(i)<<sh+d.Len <= lo {
				continue // ends before the written range
			}
			*d = arch.DecodedInsn{}
			p.Sim.Invalidations++
		}
	}
	if s.sblocks != nil {
		start := max(int(lo)-(int(s.maxBlock)-1), 0) >> sh
		end := min(last+1, len(s.sblocks))
		dropped := false
		for i := start; i < end; i++ {
			b := s.sblocks[i]
			if b == nil {
				continue
			}
			if uint32(i)<<sh+b.nbytes <= lo {
				continue // the whole run ends before the written range
			}
			s.sblocks[i] = nil
			dropped = true
			p.Sim.Invalidations++
		}
		if dropped {
			s.gen++
		}
	}
}
