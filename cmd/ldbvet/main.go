// Ldbvet runs ldb's retargetability, concurrency, and determinism
// analyzer suite over the module: machdep (machine dependence stays
// behind the arch seam), wireproto (the nub protocol's kind table is
// total), endian (byte-order assumptions stay in the arch tree and the
// wire layer), recoverguard (nub handlers run under panic containment),
// lockorder (declared //ldb:lock ranks are acquired in increasing
// order, no cycles), atomicity (fields touched through sync/atomic are
// never accessed plainly), and detstate (//ldb:deterministic call
// trees stay replay-deterministic). It exits 1 if any finding is not
// suppressed by a //ldb:allow annotation.
//
// Usage:
//
//	go run ./cmd/ldbvet ./...
//	go run ./cmd/ldbvet -json ./...
//	go run ./cmd/ldbvet -fix ./...     # show stale //ldb:allow removals
//	go run ./cmd/ldbvet -fix -w ./...  # apply them
//
// The suite always analyzes the whole module containing the working
// directory (or -root); package patterns are accepted for familiarity
// but the boundary being checked is module-wide by nature.
package main

import (
	"flag"
	"fmt"
	"os"

	"ldb/internal/analysis"

	// The analyzers are parameterized by machine-dependent data — the
	// opcode fingerprints — derived from the arch registry. Linking the
	// targets in is the build's job, here as in the debugger (§6).
	_ "ldb/internal/arch/m68k"
	_ "ldb/internal/arch/mips"
	_ "ldb/internal/arch/sparc"
	_ "ldb/internal/arch/vax"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit the machine-readable report")
	rootFlag := flag.String("root", "", "module root (default: the module containing the working directory)")
	fix := flag.Bool("fix", false, "plan removal of stale //ldb:allow annotations and print the diff")
	write := flag.Bool("w", false, "with -fix: write the planned removals to the source files")
	flag.Parse()

	root := *rootFlag
	if root == "" {
		var err error
		root, err = analysis.FindRoot(".")
		if err != nil {
			fmt.Fprintln(os.Stderr, "ldbvet:", err)
			os.Exit(2)
		}
	}
	repo, err := analysis.Load(analysis.Config{
		Root:         root,
		Fingerprints: analysis.ArchFingerprints(),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ldbvet:", err)
		os.Exit(2)
	}
	diags := analysis.RunSuite(repo)
	if *fix {
		fixes, err := analysis.PlanFixes(root, diags)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ldbvet:", err)
			os.Exit(2)
		}
		if len(fixes) == 0 {
			fmt.Println("ldbvet: no stale //ldb:allow annotations")
			return
		}
		for _, f := range fixes {
			fmt.Print(f.Diff())
		}
		if !*write {
			fmt.Println("ldbvet: dry run; re-run with -fix -w to apply")
			return
		}
		if err := analysis.Apply(root, fixes); err != nil {
			fmt.Fprintln(os.Stderr, "ldbvet:", err)
			os.Exit(2)
		}
		n := 0
		for _, f := range fixes {
			n += len(f.Edits)
		}
		fmt.Printf("ldbvet: removed %d stale allow(s) in %d file(s)\n", n, len(fixes))
		return
	}
	if *jsonOut {
		out, err := analysis.FormatJSON(diags)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ldbvet:", err)
			os.Exit(2)
		}
		os.Stdout.Write(append(out, '\n'))
	} else {
		fmt.Print(analysis.Format(diags))
	}
	if len(analysis.Failing(diags)) > 0 {
		os.Exit(1)
	}
}
