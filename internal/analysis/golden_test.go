package analysis_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ldb/internal/analysis"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestGolden pins each analyzer's diagnostics over a fixture module
// designed to trip it. The full suite runs over every fixture — the
// goldens therefore also pin that the other analyzers stay quiet where
// they should. Regenerate with: go test ./internal/analysis -run Golden -update
func TestGolden(t *testing.T) {
	fixtures := []struct {
		name string
		// fingerprints plays ArchFingerprints for the fixture: the
		// machdep fixture hides the m68k no-op encoding in core.
		fingerprints map[uint64]string
	}{
		{name: "machdep", fingerprints: map[uint64]string{0x4e71: "m68k no-op instruction"}},
		{name: "wireproto"},
		{name: "endian"},
		{name: "recoverguard"},
		{name: "lockorder"},
		{name: "atomicity"},
		{name: "detstate"},
		{name: "allow"},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			repo, err := analysis.Load(analysis.Config{
				Root:         filepath.Join("testdata", fx.name),
				Fingerprints: fx.fingerprints,
			})
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for _, d := range analysis.RunSuite(repo) {
				b.WriteString(d.String())
				b.WriteByte('\n')
			}
			got := b.String()
			golden := filepath.Join("testdata", fx.name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("diagnostics changed\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}
