// Botvet is the project-specific static-analysis gate. It bundles the
// botscope analyzers — nodeterm, lockguard, snapshotalias, floateq,
// sharedslice, parmerge, hotalloc, rngstream, the SSA-based
// interprocedural tier (goleak, ctxflow, wireframe), plus the
// columnar-era tier (mmaplife, lazymat, memodisc) — into a
// unitchecker binary that `go vet` drives over every package:
//
//	go build -o bin/botvet ./cmd/botvet
//	go vet -vettool=$(pwd)/bin/botvet ./...
//
// `make botvet` (and `make verify`) wire this up; `make botvet-json` runs
// the same gate with `go vet -json` for machine-readable output, where
// diagnostics arrive as a JSON object per package keyed by analyzer name.
//
// Invoked as `botvet -format=sarif [packages...]` the binary instead
// drives `go vet -json` over the packages (default ./...) with itself as
// the vettool and converts the diagnostics to SARIF 2.1.0 on stdout, the
// format CI uploads as a code-scanning artifact; see sarif.go.
//
// `botvet -only=a,b [packages...]` runs just the named analyzers and
// `botvet -skip=a,b [packages...]` runs all but them — both re-drive
// `go vet` with itself as the vettool and per-analyzer selection flags.
// The two compose (-only minus -skip) and either combines with
// -format=sarif. Naming an analyzer the gate does not carry, or
// selecting away every analyzer, is misuse (exit 2).
//
// Exit codes follow the `go vet` convention the CI gate relies on:
//
//	0  every analyzer ran and reported nothing
//	1  at least one diagnostic was reported (or a package failed to build)
//	2  the tool itself was misused (bad flags, unreadable vet config)
//
// Each analyzer encodes an invariant the paper reproduction depends on;
// see DESIGN.md for what they enforce and why. Per-line exceptions use
// "//botvet:allow <analyzer>" or "//botvet:ignore <analyzer> <reason>".
package main

import (
	"fmt"
	"os"
	"os/exec"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/unitchecker"

	"botscope/internal/analysis/ctxflow"
	"botscope/internal/analysis/floateq"
	"botscope/internal/analysis/goleak"
	"botscope/internal/analysis/hotalloc"
	"botscope/internal/analysis/lazymat"
	"botscope/internal/analysis/lockguard"
	"botscope/internal/analysis/memodisc"
	"botscope/internal/analysis/mmaplife"
	"botscope/internal/analysis/nodeterm"
	"botscope/internal/analysis/parmerge"
	"botscope/internal/analysis/rngstream"
	"botscope/internal/analysis/sharedslice"
	"botscope/internal/analysis/snapshotalias"
	"botscope/internal/analysis/wireframe"
)

// analyzers is the full gate, in one place so the unitchecker run and the
// SARIF rule table stay in lockstep.
var analyzers = []*analysis.Analyzer{
	ctxflow.Analyzer,
	floateq.Analyzer,
	goleak.Analyzer,
	hotalloc.Analyzer,
	lazymat.Analyzer,
	lockguard.Analyzer,
	memodisc.Analyzer,
	mmaplife.Analyzer,
	nodeterm.Analyzer,
	parmerge.Analyzer,
	rngstream.Analyzer,
	sharedslice.Analyzer,
	snapshotalias.Analyzer,
	wireframe.Analyzer,
}

func main() {
	if len(os.Args) > 1 && isDriverFlag(os.Args[1]) {
		os.Exit(driverMain(os.Args[1:]))
	}
	unitchecker.Main(analyzers...)
}

// isDriverFlag reports whether arg selects one of botvet's self-driving
// modes rather than the vettool protocol `go vet` speaks to the binary.
func isDriverFlag(arg string) bool {
	a := strings.TrimPrefix(arg, "-")
	a = strings.TrimPrefix(a, "-")
	return a == "format=sarif" || strings.HasPrefix(a, "only=") || strings.HasPrefix(a, "skip=")
}

// driverMain handles the self-driving modes: it peels -format=sarif,
// -only= and -skip= off the front of args, resolves the analyzer
// selection, and re-drives `go vet` (directly or through sarifMain) with
// itself as the vettool. Returns the process exit code.
func driverMain(args []string) int {
	var sarif bool
	var only, skip []string
	for len(args) > 0 && isDriverFlag(args[0]) {
		a := strings.TrimPrefix(strings.TrimPrefix(args[0], "-"), "-")
		switch {
		case a == "format=sarif":
			sarif = true
		case strings.HasPrefix(a, "only="):
			only = append(only, splitNames(strings.TrimPrefix(a, "only="))...)
		case strings.HasPrefix(a, "skip="):
			skip = append(skip, splitNames(strings.TrimPrefix(a, "skip="))...)
		}
		args = args[1:]
	}

	selected, err := selectAnalyzers(only, skip)
	if err != nil {
		fmt.Fprintf(os.Stderr, "botvet: %v\n", err)
		return 2
	}
	if sarif {
		return sarifMain(selected, args)
	}
	if selected == nil {
		// No selection flags: plain full-gate run.
		return runVet(nil, args)
	}
	return runVet(selected, args)
}

// splitNames splits a comma-separated analyzer list, dropping empties.
func splitNames(s string) []string {
	var out []string
	for _, n := range strings.Split(s, ",") {
		if n = strings.TrimSpace(n); n != "" {
			out = append(out, n)
		}
	}
	return out
}

// selectAnalyzers resolves -only/-skip lists against the gate. It
// returns nil when no selection was requested (run everything), the
// selected names otherwise, and an error for unknown names or an empty
// result.
func selectAnalyzers(only, skip []string) ([]string, error) {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	for _, n := range append(append([]string(nil), only...), skip...) {
		if !known[n] {
			return nil, fmt.Errorf("unknown analyzer %q (gate carries: %s)", n, analyzerNames())
		}
	}
	if len(only) == 0 && len(skip) == 0 {
		return nil, nil
	}
	base := only
	if len(base) == 0 {
		for _, a := range analyzers {
			base = append(base, a.Name)
		}
	}
	skipped := make(map[string]bool, len(skip))
	for _, n := range skip {
		skipped[n] = true
	}
	var out []string
	seen := make(map[string]bool, len(base))
	for _, n := range base {
		if !skipped[n] && !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("selection leaves no analyzers to run")
	}
	return out, nil
}

func analyzerNames() string {
	names := make([]string, len(analyzers))
	for i, a := range analyzers {
		names[i] = a.Name
	}
	return strings.Join(names, ", ")
}

// runVet re-drives `go vet` with this binary as the vettool, enabling
// just the selected analyzers (all of them when selected is nil). Output
// passes through verbatim; the exit code mirrors vet's 0/1/2 contract.
func runVet(selected []string, pkgs []string) int {
	if len(pkgs) == 0 {
		pkgs = []string{"./..."}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "botvet: cannot locate own binary: %v\n", err)
		return 2
	}
	args := []string{"vet", "-vettool=" + self}
	for _, n := range selected {
		args = append(args, "-"+n)
	}
	args = append(args, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok && ee.ExitCode() > 0 {
			return ee.ExitCode()
		}
		fmt.Fprintf(os.Stderr, "botvet: running go vet: %v\n", err)
		return 2
	}
	return 0
}
