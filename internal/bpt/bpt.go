// Package bpt implements ldb's interim breakpoint scheme (§3): a
// breakpoint is planted by overwriting an instruction with the trap
// pattern; because lcc puts a no-op at every stopping point, resuming
// needs no single-stepping — the no-op is "interpreted" out of line by
// advancing the program counter. The implementation is
// machine-independent but manipulates four items of machine-dependent
// data: the break and no-op bit patterns, the width used to fetch and
// store instructions, and the amount to advance the pc.
//
// Everything happens through ordinary fetches and stores over the nub
// protocol; the protocol itself never mentions breakpoints (§6).
package bpt

import (
	"bytes"
	"fmt"
	"slices"

	"ldb/internal/amem"
	"ldb/internal/arch"
	"ldb/internal/nub"
)

// Manager plants and removes breakpoints in one target.
type Manager struct {
	A arch.Arch
	C *nub.Client

	planted map[uint32][]byte // address → overwritten bytes
	raw     map[uint32]bool   // planted over a real instruction, not a no-op
}

// New returns a breakpoint manager.
func New(a arch.Arch, c *nub.Client) *Manager {
	return &Manager{A: a, C: c, planted: make(map[uint32][]byte), raw: make(map[uint32]bool)}
}

// Plant sets a breakpoint at addr, which must hold a stopping-point
// no-op (the interim scheme can set breakpoints only at no-ops, which
// are skipped instead of interpreted, §3).
func (m *Manager) Plant(addr uint32) error {
	if _, dup := m.planted[addr]; dup {
		return nil
	}
	size := m.A.InstrSize()
	old, err := m.C.FetchBytes(amem.Code, addr, size)
	if err != nil {
		return err
	}
	if !bytes.Equal(old, m.A.NopInstr()) {
		return fmt.Errorf("bpt: %#x does not hold a stopping-point no-op", addr)
	}
	// Plant through the special store of §7.1's enriched protocol, so
	// the nub, too, records the overwritten instruction and can report
	// it to a new debugger if this one is lost.
	if err := m.C.PlantStore(addr, m.A.BreakInstr()); err != nil {
		return err
	}
	m.planted[addr] = old
	return nil
}

// PlantRaw sets a breakpoint at an arbitrary instruction — the
// machine-level form used when no symbol table marks the stopping-point
// no-ops. Unlike Plant, the overwritten instruction cannot be skipped
// on resume; the resumer must restore it, retire it with a single
// machine step, and replant (IsRaw tells the two kinds apart).
func (m *Manager) PlantRaw(addr uint32) error {
	if _, dup := m.planted[addr]; dup {
		return nil
	}
	old, err := m.C.FetchBytes(amem.Code, addr, m.A.InstrSize())
	if err != nil {
		return err
	}
	if err := m.C.PlantStore(addr, m.A.BreakInstr()); err != nil {
		return err
	}
	m.planted[addr] = old
	if !bytes.Equal(old, m.A.NopInstr()) {
		m.raw[addr] = true
	}
	return nil
}

// IsRaw reports whether the breakpoint at addr overwrote a real
// instruction rather than a stopping-point no-op.
func (m *Manager) IsRaw(addr uint32) bool { return m.raw[addr] }

// PlantMany sets breakpoints at every address in addrs, batching the
// no-op checks into one round trip and the plants into another (§6's
// protocol carries them as ordinary fetches and special stores, so an
// MBatch envelope holds the lot). On any failure every breakpoint this
// call planted is removed again — those of envelopes that landed
// before a later one was lost included, and those of an envelope whose
// reply was lost but which the nub ran — so the set of planted
// breakpoints is unchanged by a failed call.
func (m *Manager) PlantMany(addrs []uint32) error {
	var fresh []uint32
	seen := make(map[uint32]bool)
	for _, a := range addrs {
		if _, dup := m.planted[a]; !dup && !seen[a] {
			fresh = append(fresh, a)
			seen[a] = true
		}
	}
	if len(fresh) == 0 {
		return nil
	}
	size := m.A.InstrSize()
	fetch := m.C.NewBatch(len(fresh))
	for _, a := range fresh {
		fetch.FetchBytes(amem.Code, a, size)
	}
	olds := fetch.Run()
	for i, r := range olds {
		if r.Err != nil {
			return r.Err
		}
		if !bytes.Equal(r.Data, m.A.NopInstr()) {
			return fmt.Errorf("bpt: %#x does not hold a stopping-point no-op", fresh[i])
		}
	}
	plant := m.C.NewBatch(len(fresh))
	trap := m.A.BreakInstr()
	for _, a := range fresh {
		plant.PlantStore(a, trap)
	}
	var failed error
	for i, r := range plant.Run() {
		if r.Err == nil {
			m.planted[fresh[i]] = olds[i].Data
		} else if failed == nil {
			failed = r.Err
		}
	}
	if nub.IsConnLost(failed) {
		// A lost reply's members may have run: the reconnect's resync
		// says which of this call's plants the nub holds.
		held := m.resynced()
		for i, a := range fresh {
			if held[a] {
				m.planted[a] = olds[i].Data
			}
		}
	}
	if failed != nil {
		// Roll back whatever did get planted so a partial failure
		// leaves the target as it was.
		for _, a := range fresh {
			if _, ok := m.planted[a]; ok {
				m.Remove(a)
			}
		}
	}
	return failed
}

// Remove clears the breakpoint at addr, restoring the no-op.
func (m *Manager) Remove(addr uint32) error {
	if _, ok := m.planted[addr]; !ok {
		return fmt.Errorf("bpt: no breakpoint at %#x", addr)
	}
	if err := m.C.UnplantStore(addr); err != nil {
		return err
	}
	m.forget(addr)
	return nil
}

// RemoveMany clears the breakpoints at every address in addrs in one
// batched round trip. Addresses with no planted breakpoint are an
// error, as with Remove. On a failure the addresses that were
// unplanted are forgotten and the rest stay planted.
func (m *Manager) RemoveMany(addrs []uint32) error {
	var unique []uint32
	seen := make(map[uint32]bool)
	for _, a := range addrs {
		if _, ok := m.planted[a]; !ok {
			return fmt.Errorf("bpt: no breakpoint at %#x", a)
		}
		if !seen[a] {
			unique = append(unique, a)
			seen[a] = true
		}
	}
	addrs = unique
	if len(addrs) == 0 {
		return nil
	}
	b := m.C.NewBatch(len(addrs))
	for _, a := range addrs {
		b.UnplantStore(a)
	}
	var failed error
	for i, r := range b.Run() {
		if r.Err == nil {
			m.forget(addrs[i])
		} else if failed == nil {
			failed = r.Err
		}
	}
	if nub.IsConnLost(failed) {
		// A lost reply's members may have run: forget the addresses the
		// reconnect's resync says the nub no longer holds.
		if held := m.resynced(); held != nil {
			for _, a := range addrs {
				if !held[a] {
					m.forget(a)
				}
			}
		}
	}
	return failed
}

// forget drops the record of the breakpoint at addr.
func (m *Manager) forget(addr uint32) {
	delete(m.planted, addr)
	delete(m.raw, addr)
}

// resynced returns the set of addresses the nub reported planted when
// the client last reconnected, or nil when the last reconnect failed
// before it could ask.
func (m *Manager) resynced() map[uint32]bool {
	recs := m.C.ResyncedPlanted()
	if recs == nil {
		return nil
	}
	held := make(map[uint32]bool, len(recs))
	for _, r := range recs {
		held[r.Addr] = true
	}
	return held
}

// RemoveAll clears every planted breakpoint.
func (m *Manager) RemoveAll() error {
	return m.RemoveMany(m.Addrs())
}

// AdoptPlanted records a breakpoint planted by a previous debugger
// instance; the caller supplies the instruction the trap replaced.
func (m *Manager) AdoptPlanted(addr uint32, original []byte) error {
	cur, err := m.C.FetchBytes(amem.Code, addr, m.A.InstrSize())
	if err != nil {
		return err
	}
	if !bytes.Equal(cur, m.A.BreakInstr()) {
		return fmt.Errorf("bpt: %#x holds no breakpoint", addr)
	}
	m.planted[addr] = append([]byte(nil), original...)
	if !bytes.Equal(original, m.A.NopInstr()) {
		m.raw[addr] = true
	}
	return nil
}

// Recover asks the nub which breakpoints a previous debugger planted
// (§7.1's enriched protocol) and adopts them all, returning their
// addresses.
func (m *Manager) Recover() ([]uint32, error) {
	records, err := m.C.ListPlanted()
	if err != nil {
		return nil, err
	}
	var out []uint32
	for _, r := range records {
		m.planted[r.Addr] = append([]byte(nil), r.Original...)
		if !bytes.Equal(r.Original, m.A.NopInstr()) {
			m.raw[r.Addr] = true
		}
		out = append(out, r.Addr)
	}
	return out, nil
}

// IsPlanted reports whether addr holds one of our breakpoints.
func (m *Manager) IsPlanted(addr uint32) bool {
	_, ok := m.planted[addr]
	return ok
}

// Addrs lists planted breakpoint addresses in ascending order. The
// order matters: RemoveAll feeds this list straight into unplant
// requests, and the deterministic fault injector schedules faults by
// byte count, so wire traffic must not vary with map iteration order.
func (m *Manager) Addrs() []uint32 {
	out := make([]uint32, 0, len(m.planted))
	for a := range m.planted {
		out = append(out, a)
	}
	slices.Sort(out)
	return out
}

// ResumePC returns the pc to continue from after stopping at a
// breakpoint: the overwritten no-op is interpreted out of line by
// skipping it.
func (m *Manager) ResumePC(pc uint32) uint32 {
	return pc + uint32(m.A.PCAdvance())
}

// IsBreakpointSignal is the machine-dependent predicate that
// distinguishes breakpoint faults from other faults (§4.3): a SIGTRAP
// whose code is the breakpoint trap code, at a planted address.
func (m *Manager) IsBreakpointSignal(ev *nub.Event) bool {
	return !ev.Exited && ev.Sig == arch.SigTrap && ev.Code == arch.TrapBreakpoint && m.IsPlanted(ev.PC)
}
