package machine

import (
	"bytes"
	"fmt"
	"testing"

	"ldb/internal/arch"
	"ldb/internal/arch/mips"
)

// ckLoop assembles a mips loop that runs n iterations, each writing its
// counter into the data segment (dirtying memory between checkpoints),
// then traps.
func ckLoop(t *testing.T, n int32) []byte {
	t.Helper()
	const (
		ctr   = mips.T0
		bound = mips.T0 + 1
		base  = mips.T0 + 2
		off   = mips.T0 + 3
		ptr   = mips.T0 + 4
	)
	as := mips.NewAsm(mips.Little)
	as.LI(ctr, 0)
	as.LI(bound, n)
	as.LI(base, int32(DataBase))
	as.LI(off, 0)
	as.Label("loop")
	as.I(mips.OpAddiu, ctr, ctr, 1)    // counter++
	as.R(mips.FnAddu, ptr, base, off)  // ptr = base + off
	as.I(mips.OpSw, ctr, ptr, 0)       // store counter
	as.I(mips.OpAddiu, off, off, 4)    // advance, wrapped inside the
	as.I(mips.OpAndi, off, off, 0xffc) // 4KB data segment
	as.Branch(mips.OpBne, ctr, bound, "loop")
	as.Break(7)
	code, _, err := as.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return code
}

// stateSig summarizes everything observable about a process.
func stateSig(p *Process) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "pc=%#x steps=%d state=%v exit=%d flag=%#x regs=%v stdout=%q",
		p.PC(), p.Steps, p.State, p.ExitCode, p.Flag(), p.regs, p.Stdout.String())
	for _, s := range p.Segs {
		fmt.Fprintf(&b, " %s=%x", s.Name, s.Data)
	}
	return b.String()
}

// ckLoopProcess builds the loop program on a fresh process with a small
// data segment (the andi keeps the store pointer inside it).
func ckLoopProcess(t *testing.T, n int32) *Process {
	t.Helper()
	code := ckLoop(t, n)
	p := New(mips.Little, code, make([]byte, 0x1000), TextBase)
	return p
}

func TestCheckpointRestoreReconverges(t *testing.T) {
	p := ckLoopProcess(t, 50_000)
	var cks []*Checkpoint
	p.EnableCheckpoints()
	p.SetAutoCheckpoint(9_000, func() { cks = append(cks, p.TakeCheckpoint()) })
	f := p.Run()
	if f == nil || f.Sig != arch.SigTrap || f.Code != 7 {
		t.Fatalf("run: %+v", f)
	}
	final := stateSig(p)
	if len(cks) < 5 {
		t.Fatalf("only %d auto-checkpoints fired", len(cks))
	}

	for i, ck := range cks {
		// Scribble over the live state, then rewind.
		p.SetReg(mips.T0, 0xdeadbeef)
		p.Segs[1].Data[0] = 0xEE
		if err := p.Restore(ck); err != nil {
			t.Fatalf("restore %d: %v", i, err)
		}
		if p.Steps != ck.Steps {
			t.Fatalf("restore %d: steps %d, want %d", i, p.Steps, ck.Steps)
		}
		if f := p.Run(); f == nil || f.Sig != arch.SigTrap {
			t.Fatalf("rerun from %d: %+v", i, f)
		}
		if got := stateSig(p); got != final {
			t.Fatalf("rerun from checkpoint %d diverged:\n got %.200s\nwant %.200s", i, got, final)
		}
	}
}

func TestFromCheckpointReconverges(t *testing.T) {
	p := ckLoopProcess(t, 20_000)
	var ck *Checkpoint
	p.SetAutoCheckpoint(7_000, func() {
		if ck == nil {
			ck = p.TakeCheckpoint()
		}
	})
	if f := p.Run(); f == nil || f.Sig != arch.SigTrap {
		t.Fatal("run did not trap")
	}
	final := stateSig(p)
	if ck == nil {
		t.Fatal("no checkpoint fired")
	}

	q, err := FromCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	if f := q.Run(); f == nil || f.Sig != arch.SigTrap {
		t.Fatal("resurrected run did not trap")
	}
	if got := stateSig(q); got != final {
		t.Fatalf("resurrected process diverged:\n got %.200s\nwant %.200s", got, final)
	}

	// The checkpoint is immutable: the original and the resurrection
	// both ran past it, yet restoring it again still rewinds correctly.
	if err := p.Restore(ck); err != nil {
		t.Fatal(err)
	}
	if f := p.Run(); f == nil || f.Sig != arch.SigTrap {
		t.Fatal("second rewind did not trap")
	}
	if got := stateSig(p); got != final {
		t.Fatal("second rewind diverged")
	}
}

// TestCheckpointPacingModes pins that auto-checkpoints fire at the
// configured interval in both engines (cached and uncached), and that
// disabling them restores the plain step limit.
func TestCheckpointPacingModes(t *testing.T) {
	for _, mode := range []struct {
		name        string
		noPredecode bool
	}{{"cached", false}, {"uncached", true}} {
		p := ckLoopProcess(t, 30_000)
		p.NoPredecode = mode.noPredecode
		fired := 0
		p.SetAutoCheckpoint(10_000, func() { fired++ })
		if f := p.Run(); f == nil || f.Sig != arch.SigTrap {
			t.Fatalf("%s: run did not trap", mode.name)
		}
		// ~6 instructions per iteration: 30k iterations is ~180k steps,
		// so an interval of 10k must fire at least 15 times and close to
		// steps/interval overall.
		want := p.Steps / 10_000
		if int64(fired) < want-1 || int64(fired) > want+1 {
			t.Fatalf("%s: %d checkpoints over %d steps, want ~%d", mode.name, fired, p.Steps, want)
		}
	}

	// Disabled: callback never fires.
	p := ckLoopProcess(t, 1_000)
	fired := 0
	p.SetAutoCheckpoint(10_000, func() { fired++ })
	p.SetAutoCheckpoint(-1, nil)
	if f := p.Run(); f == nil || f.Sig != arch.SigTrap {
		t.Fatal("run did not trap")
	}
	if fired != 0 {
		t.Fatalf("disabled pacing fired %d times", fired)
	}
}

// TestRestoreRejectsMismatch pins the validation errors.
func TestRestoreRejectsMismatch(t *testing.T) {
	p := ckLoopProcess(t, 10)
	ck := p.TakeCheckpoint()

	q := New(mips.Little, make([]byte, 8), nil, TextBase)
	if err := q.Restore(ck); err == nil {
		t.Fatal("mismatched segment shape accepted")
	}
	ck2 := p.TakeCheckpoint()
	ck2.Arch = "nonesuch"
	if err := p.Restore(ck2); err == nil {
		t.Fatal("mismatched arch accepted")
	}
	if _, err := FromCheckpoint(ck2); err == nil {
		t.Fatal("unknown arch resurrected")
	}
}
