package analysis_test

import (
	"strings"
	"testing"

	"ldb/internal/analysis"

	// The analyzers are parameterized by registered arch data; link the
	// targets in so ArchFingerprints sees all four.
	_ "ldb/internal/arch/m68k"
	_ "ldb/internal/arch/mips"
	_ "ldb/internal/arch/sparc"
	_ "ldb/internal/arch/vax"
)

// TestRepositoryIsClean is the tier-1 gate: the full analyzer suite
// over this repository must report no unsuppressed finding. A change
// that leaks machine dependence, drops a protocol kind's plumbing,
// hand-rolls byte order, or uncontains a handler fails the build here,
// exactly as `go run ./cmd/ldbvet ./...` would fail it.
func TestRepositoryIsClean(t *testing.T) {
	root, err := analysis.FindRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	repo, err := analysis.Load(analysis.Config{
		Root:         root,
		Fingerprints: analysis.ArchFingerprints(),
	})
	if err != nil {
		t.Fatal(err)
	}
	diags := analysis.RunSuite(repo)
	for _, d := range analysis.Failing(diags) {
		t.Error(d.String())
	}
	// The exception list is real and visible: the defined file formats
	// and the simulators' hot-path loads carry //ldb:allow endian.
	allowed := 0
	for _, d := range diags {
		if d.Allowed {
			allowed++
		}
	}
	if allowed == 0 {
		t.Error("expected some allowed findings (the //ldb:allow exception list); the allow matching is broken")
	}
}

// TestMachdepCatchesCoreArchImport is the issue's negative fixture:
// a module whose machine-independent internal/core imports
// internal/arch/mips must fail machdep.
func TestMachdepCatchesCoreArchImport(t *testing.T) {
	repo, err := analysis.Load(analysis.Config{Root: "testdata/machdep"})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range analysis.Failing(analysis.RunSuite(repo)) {
		if d.Analyzer == "machdep" && d.Path == "internal/core/core.go" &&
			strings.Contains(d.Msg, "imports mips-specific package seam.test/internal/arch/mips") {
			found = true
		}
	}
	if !found {
		t.Error("machdep did not flag internal/core importing internal/arch/mips")
	}
}

// TestArchFingerprints pins that the fingerprint table is derived from
// the registry, drops one-byte opcodes, and knows the classic
// encodings machine-independent code must not spell.
func TestArchFingerprints(t *testing.T) {
	fps := analysis.ArchFingerprints()
	if len(fps) == 0 {
		t.Fatal("no fingerprints from the registered targets")
	}
	if what, ok := fps[0x4e71]; !ok || !strings.Contains(what, "m68k") {
		t.Errorf("m68k no-op 0x4e71 missing or misattributed: %q", what)
	}
	for v := range fps {
		if v < 0x100 {
			t.Errorf("one-byte opcode %#x should have been dropped", v)
		}
	}
}

// TestSuiteRoster pins the seven-analyzer roster in order: a dropped
// or renamed analyzer is a silent loss of coverage everywhere ldbvet
// runs.
func TestSuiteRoster(t *testing.T) {
	want := []string{"machdep", "wireproto", "endian", "recoverguard",
		"lockorder", "atomicity", "detstate"}
	suite := analysis.Suite()
	if len(suite) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(suite), len(want))
	}
	for i, a := range suite {
		if a.Name != want[i] {
			t.Errorf("suite[%d] = %q, want %q", i, a.Name, want[i])
		}
	}
}

// TestLockCycleNeedsLockorder is the issue's teeth check: the lock
// cycle in the lockorder fixture is invisible to every other analyzer.
// Without the lockorder pass the fixture comes back clean — so the
// cycle findings exist, and all of them are lockorder's.
func TestLockCycleNeedsLockorder(t *testing.T) {
	repo, err := analysis.Load(analysis.Config{Root: "testdata/lockorder"})
	if err != nil {
		t.Fatal(err)
	}
	failing := analysis.Failing(analysis.RunSuite(repo))
	cycle, others := 0, 0
	for _, d := range failing {
		if d.Analyzer != "lockorder" {
			others++
			continue
		}
		if strings.Contains(d.Msg, "lock cycle") {
			cycle++
		}
	}
	if cycle == 0 {
		t.Error("the lockorder fixture's lock cycle went unreported")
	}
	if others != 0 {
		t.Errorf("%d findings from other analyzers: without lockorder the fixture would not be clean", others)
	}
}
