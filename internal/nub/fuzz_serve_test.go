package nub

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"ldb/internal/amem"
	"ldb/internal/arch"
	"ldb/internal/arch/mips"
	"ldb/internal/machine"
)

// FuzzServe feeds arbitrary bytes to a serving nub over an in-memory
// connection. The contract under fuzzing: for any input the nub either
// replies or closes the connection — it never panics, never hangs, and
// never allocates a peer-declared amount of memory. The target program
// exits quickly, so inputs that happen to decode as MContinue finish
// fast too.
func FuzzServe(f *testing.F) {
	a := mips.Little
	as := mips.NewAsm(a)
	as.Break(arch.TrapPause)
	as.LI(mips.V0, arch.SysExit)
	as.LI(mips.A0, 0)
	as.Syscall()
	code, _, err := as.Finish()
	if err != nil {
		f.Fatal(err)
	}

	// Seeds: nothing, a well-formed session, a truncated header, an
	// oversize frame, and plain junk.
	f.Add([]byte{})
	var valid bytes.Buffer
	_ = WriteMsg(&valid, &Msg{Kind: MFetchInt, Space: byte(amem.Data), Addr: machine.DataBase, Size: 4})
	_ = WriteMsg(&valid, &Msg{Kind: MListPlanted})
	_ = WriteMsg(&valid, &Msg{Kind: MMetrics})
	_ = WriteMsg(&valid, &Msg{Kind: MStepInst})
	_ = WriteMsg(&valid, &Msg{Kind: MContinue})
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:7])
	var oversize bytes.Buffer
	_ = WriteMsg(&oversize, &Msg{Kind: MFetchBytes, Space: byte(amem.Data)})
	ob := oversize.Bytes()
	ob[27], ob[28], ob[29], ob[30] = 0xff, 0xff, 0xff, 0x7f
	f.Add(ob)
	f.Add([]byte{0xff, 0x00, 0x41, 0x41, 0x41})

	f.Fuzz(func(t *testing.T, data []byte) {
		p := machine.New(a, code, make([]byte, 64), machine.TextBase)
		n := New(p)
		// A short deadline so a partial frame at the end of the input
		// terminates the connection quickly instead of idling out the
		// fuzz budget.
		n.ReadTimeout = 200 * time.Millisecond
		n.Start()
		srv, cli := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = n.Serve(srv)
			_ = srv.Close()
		}()
		go func() { _, _ = io.Copy(io.Discard, cli) }()
		_ = cli.SetWriteDeadline(time.Now().Add(2 * time.Second))
		_, _ = cli.Write(data)
		_ = cli.Close()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("nub hung on %d bytes of fuzz input", len(data))
		}
	})
}
