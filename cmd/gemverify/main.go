// Command gemverify runs the paper's Section 11 verification matrix: the
// Monitor, CSP, and ADA solutions of the One-Slot Buffer, Bounded Buffer,
// and Reader's-Priority Readers/Writers problems, each exhaustively
// explored and checked against its GEM problem specification with the
// Section 9 sat methodology. Exits non-zero if any cell fails.
//
// The flags gemverify shares with the other gem tools (-j, -cache,
// -cache-dir, -cpuprofile, -memprofile, -trace, -stats) are declared once
// in internal/cli and described in the README's "Tools" section. Every -j
// and -cache setting reports the same verdicts, and every -j the same run
// counts and first-failure computation indices.
//
// -sarif writes the matrix outcome as a SARIF log: one GEM017 result per
// failed cell, an empty result set for a fully verified matrix.
//
// SIGINT (Ctrl-C) interrupts the run cleanly: exploration and checking
// stop promptly, the command exits non-zero with an "interrupted
// (partial results)" error, and any requested profile, trace, and stats
// files are still flushed — so a too-long run can be interrupted and
// profiled anyway.
package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"gem/internal/check"
	"gem/internal/cli"
	"gem/internal/lint"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "gemverify:", err)
		os.Exit(1)
	}
}

// run executes gemverify with the given arguments, writing the matrix
// and refutation tables to stdout.
func run(args []string, stdout, stderr io.Writer) error {
	t := cli.New("gemverify", stderr, cli.Checks)
	sarif := t.FS.String("sarif", "", "write the matrix outcome as SARIF to this file")
	if err := t.FS.Parse(args); err != nil {
		return err
	}
	return t.RunContext(func(ctx context.Context) error {
		_, cache, err := t.OpenStore()
		if err != nil {
			return err
		}
		opts := check.Options{Parallelism: t.J, Ctx: ctx, Cache: cache}
		cells, err := check.RunMatrixCells(stdout, opts)
		// The SARIF log is written even for a failing matrix — the
		// failures are exactly what it exists to report.
		if serr := writeSARIF(*sarif, cells); serr != nil && err == nil {
			err = serr
		}
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "\nnegative controls (must be refuted):")
		return check.RunRefutations(stdout, opts)
	})
}

// writeSARIF renders the matrix cells as a SARIF log: one GEM017 result
// per failed cell (the cell name as the subject, the failure — including
// any counterexample rendering — as the message), none for a verified
// matrix. The output is deterministic for deterministic cell outcomes,
// so a warm-cache run emits a byte-identical log.
func writeSARIF(path string, cells []check.Cell) error {
	if path == "" {
		return nil
	}
	var diags []lint.FileDiagnostic
	for _, cell := range cells {
		if cell.Verified || cell.Err == nil {
			continue
		}
		diags = append(diags, lint.FileDiagnostic{Diagnostic: lint.Diagnostic{
			Code:     lint.CodeSatRefuted,
			Severity: lint.SeverityError,
			Subject:  cell.Scenario.Problem + "/" + string(cell.Scenario.Language),
			Message:  cell.Err.Error(),
		}})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := lint.WriteSARIFAs(f, "gemverify", diags)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
