package driver

import (
	"testing"

	"ldb/internal/arch"
	"ldb/internal/link"
	"ldb/internal/machine"
	"ldb/internal/workload"
)

// The simulator's gate: the cached engine (decode cache plus
// superblock fusion) and the uncached one must be step-for-step
// identical — same step count, stdout, exit fault, and final machine
// state for every workload program on every target.

// runWorkload runs prog to completion, cached or uncached, skipping the
// pause traps debug builds execute before main.
func runWorkload(t *testing.T, prog *Program, noPredecode bool) (*machine.Process, *arch.Fault) {
	t.Helper()
	p := link.NewProcess(prog.Image)
	p.NoPredecode = noPredecode
	f := p.Run()
	for f.Kind == arch.FaultSignal && f.Sig == arch.SigTrap && f.Code == arch.TrapPause {
		p.SetPC(f.PC + f.Len)
		f = p.Run()
	}
	return p, f
}

func TestPredecodeDifferential(t *testing.T) {
	for _, a := range allArches {
		for _, name := range workload.Names {
			for _, opts := range []Options{
				{Arch: a},
				{Arch: a, Debug: true, Sched: a == "mips" || a == "mipsbe"},
			} {
				prog, err := Build([]Source{{Name: name + ".c", Text: workload.Programs[name]}}, opts)
				if err != nil {
					t.Fatalf("%s on %s: %v", name, a, err)
				}
				// The uncached engine is the reference for caching,
				// invalidation, and fusion: it decodes every instruction
				// afresh and discards it, so it runs the same Decode
				// products with no cache or superblock in between. The
				// comparison with workload.Outputs checks the semantics.
				pu, fu := runWorkload(t, prog, true)
				pc, fc := runWorkload(t, prog, false)
				if *fc != *fu {
					t.Fatalf("%s on %s (%+v): cached exit %+v, uncached %+v", name, a, opts, fc, fu)
				}
				if pc.Steps != pu.Steps {
					t.Errorf("%s on %s (%+v): cached ran %d steps, uncached %d", name, a, opts, pc.Steps, pu.Steps)
				}
				if got, want := pc.Stdout.String(), pu.Stdout.String(); got != want {
					t.Errorf("%s on %s (%+v): cached stdout %q, uncached %q", name, a, opts, got, want)
				}
				if got, want := pc.Stdout.String(), workload.Outputs[name]; got != want {
					t.Errorf("%s on %s (%+v): stdout %q, want %q", name, a, opts, got, want)
				}
				if pc.PC() != pu.PC() || pc.Flag() != pu.Flag() {
					t.Errorf("%s on %s (%+v): cached pc=%#x flag=%#x, uncached pc=%#x flag=%#x",
						name, a, opts, pc.PC(), pc.Flag(), pu.PC(), pu.Flag())
				}
				for i := 0; i < prog.Image.Arch.NumRegs(); i++ {
					if pc.Reg(i) != pu.Reg(i) {
						t.Errorf("%s on %s (%+v): r%d cached %#x, uncached %#x", name, a, opts, i, pc.Reg(i), pu.Reg(i))
					}
				}
				for i := 0; i < prog.Image.Arch.NumFRegs(); i++ {
					if pc.FReg(i) != pu.FReg(i) {
						t.Errorf("%s on %s (%+v): f%d cached %v, uncached %v", name, a, opts, i, pc.FReg(i), pu.FReg(i))
					}
				}
				// The cached engine must actually have executed from the
				// cache and formed superblocks.
				st := pc.SimStats()
				if st.Hits == 0 {
					t.Errorf("%s on %s (%+v): decode cache never hit (stats %+v)", name, a, opts, st)
				}
				if st.Blocks == 0 {
					t.Errorf("%s on %s (%+v): cached run formed no superblocks (stats %+v)", name, a, opts, st)
				}
			}
		}
	}
}
