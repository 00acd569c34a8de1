package driver

import (
	"bytes"
	"sort"
	"testing"

	"ldb/internal/arch"
	"ldb/internal/machine"
	"ldb/internal/workload"
)

// TestDecodeStatesSemanticsOnce: every instruction of every workload
// program, optimized and debug, on every target, decodes to exactly one
// statement of its semantics — a micro-op or an Exec closure, never
// both — and to a nonzero length, which the decode cache relies on to
// tell a filled slot from an empty one. The sweep walks each function
// from its entry to the next one; only the zero padding that aligns a
// function to 4 bytes may fail to decode.
func TestDecodeStatesSemanticsOnce(t *testing.T) {
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
				img := prog.Image
				starts := []int{0, len(img.Text)}
				for _, f := range img.Funcs {
					starts = append(starts, int(f.Addr-machine.TextBase))
				}
				sort.Ints(starts)
				for i := 0; i+1 < len(starts); i++ {
					for off, end := starts[i], starts[i+1]; off < end; {
						pc := machine.TextBase + uint32(off)
						d := img.Arch.Decode(img.Text, off, pc)
						if d == nil {
							if end-off >= 4 || !bytes.Equal(img.Text[off:end], make([]byte, end-off)) {
								t.Errorf("%s on %s (%+v): %#x does not decode", name, a, opts, pc)
							}
							break
						}
						if d.Len == 0 || (d.Exec == nil) == (d.Uop == arch.UopNone) {
							t.Errorf("%s on %s (%+v): %#x decodes to Len %d, Exec set %v, Uop %d",
								name, a, opts, pc, d.Len, d.Exec != nil, d.Uop)
						}
						off += int(max(d.Len, 1))
					}
				}
			}
		}
	}
}
