package ps_test

import (
	"io"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"ldb/internal/driver"
	"ldb/internal/ps"
	"ldb/internal/workload"
)

// scanAll tokenizes everything sc reads, rendering each token with
// Format, and returns the error that ended it ("" at a clean EOF).
func scanAll(sc *ps.Scanner) ([]string, string) {
	var toks []string
	for {
		o, err := sc.Next()
		if err == io.EOF {
			return toks, ""
		}
		if err != nil {
			return toks, err.Error()
		}
		toks = append(toks, ps.Format(o))
	}
}

// threeByteReader returns at most three bytes per Read, so that a
// refill lands anywhere in a token, and the part of the buffer before
// the token is sometimes dropped and sometimes kept.
type threeByteReader struct{ r io.Reader }

func (r threeByteReader) Read(p []byte) (int, error) { return r.r.Read(p[:min(len(p), 3)]) }

// FuzzScanSources checks that the scanner's two sources agree. For any
// input, scanning it in place from a string and through a reader that
// returns one byte per Read — so that every token is assembled across
// refills — or three, must give the same tokens and the same error,
// line number included.
func FuzzScanSources(f *testing.F) {
	for _, name := range []string{"fib", "queens"} {
		prog, err := driver.Build([]driver.Source{{Name: name + ".c", Text: workload.Programs[name]}},
			driver.Options{Arch: "mips", Debug: true})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(prog.LoaderPS)
	}
	for _, src := range []string{
		"(one\ntwo\n) (unterminated\nthree\n", // unterminated after a multi-line string
		"(escape at EOF\\",
		`(\1\12\123\1234\8\9 \(\)\\)`, // octal escapes of one to three digits, and others
		"1\n)",
		"1\n}",
		"1\n<",
		"1\n<x",
		"1\n>",
		"1\n>x",
		"1 2 add % a comment at EOF",
		"{ 1 % c\n }", // a comment before a procedure's closing brace
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<20 {
			return // cap scanner work per input
		}
		want, wantErr := scanAll(ps.NewStringScanner(src, "src"))
		for _, r := range []io.Reader{
			iotest.OneByteReader(strings.NewReader(src)),
			threeByteReader{strings.NewReader(src)},
		} {
			got, gotErr := scanAll(ps.NewScanner(r, "src"))
			if !slices.Equal(got, want) || gotErr != wantErr {
				t.Fatalf("scanning %q\nfrom a string: %q, error %q\nfrom a %T: %q, error %q", src, want, wantErr, r, got, gotErr)
			}
		}
	})
}
