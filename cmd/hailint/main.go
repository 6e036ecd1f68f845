// Command hailint runs the repo's invariant analyzers (internal/lint)
// over the tree — the static counterpart to runtime checks like
// obs.Trace.Validate and the namenode oracle harness.
//
// Usage:
//
//	hailint [-analyzers sigflow,goleak,...] [-list] [-json] [patterns...]
//
// Patterns default to ./... and accept ./dir and ./dir/... forms. Exit
// status is 0 for a clean tree, 1 on diagnostics, 2 on usage or load
// errors. Diagnostics print as file:line:col: [analyzer] message — the
// format CI's GitHub problem matcher parses — or, under -json, as a
// machine-readable array:
//
//	[{"file":"internal/core/inputformat.go","line":509,"col":14,
//	  "analyzer":"sigflow","message":"..."}]
//
// Intentional exceptions are suppressed in the code itself with
//
//	//lint:allow <analyzer> <reason>
//
// on (or immediately above) the offending line; a missing reason is
// itself a diagnostic, so every exception stays auditable.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("hailint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	analyzers := fs.String("analyzers", "", "comma-separated analyzer subset (default: all)")
	list := fs.Bool("list", false, "list analyzers and exit")
	dir := fs.String("C", ".", "module root to analyze")
	jsonOut := fs.Bool("json", false, "print diagnostics as a JSON array instead of plain lines")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	suite := lint.All()
	if *analyzers != "" {
		var err error
		suite, err = lint.ByName(*analyzers)
		if err != nil {
			fmt.Fprintf(stderr, "hailint: %v\n", err)
			return 2
		}
	}
	if *list {
		for _, a := range suite {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, firstLine(a.Doc))
		}
		return 0
	}

	pkgs, err := lint.LoadModule(*dir, fs.Args())
	if err != nil {
		fmt.Fprintf(stderr, "hailint: %v\n", err)
		return 2
	}
	diags, err := lint.RunAnalyzers(pkgs, suite)
	if err != nil {
		fmt.Fprintf(stderr, "hailint: %v\n", err)
		return 2
	}
	if *jsonOut {
		if err := writeJSON(stdout, diags); err != nil {
			fmt.Fprintf(stderr, "hailint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "hailint: %d violation(s) in %d package(s) checked\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}

// jsonDiag is the machine-readable diagnostic shape; field names are the
// contract the CI tooling (and any editor integration) parses.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func writeJSON(stdout *os.File, diags []lint.Diagnostic) error {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiag{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func firstLine(s string) string {
	for i, r := range s {
		if r == '\n' {
			return s[:i]
		}
	}
	return s
}
