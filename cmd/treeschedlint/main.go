// Command treeschedlint is the repo's contract checker: a multichecker
// bundling the analyzers of internal/analysis (policypure, detfree,
// poollife, errtyped, hotalloc, locksafe, goroleak). It loads packages
// from source, so no build step is needed:
//
//	go run ./cmd/treeschedlint ./...
//	go run ./cmd/treeschedlint -json ./...
//	go run ./cmd/treeschedlint -detfree ./internal/trace
//
// Package patterns default to ./... and, like the go tool's, stop at a
// subdirectory holding its own go.mod. -<analyzer> runs only the named
// analyzers; -<analyzer>=false runs all but those. Diagnostics are
// printed as file:line:col: message [analyzer], and the exit status is
// 1 iff an unsuppressed diagnostic was reported (2 on load or
// typecheck errors). -json emits one JSON object per finding
// (analyzer, pos, message, suppressed) on stdout instead — suppressed
// findings included, for auditability — with the same exit status.
// A finding that is a proven false positive can be suppressed at the
// site with
//
//	//lint:ignore <analyzer> <reason>
//
// on the flagged line or the line above it (see DESIGN.md §11).
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/detfree"
	"repro/internal/analysis/driver"
	"repro/internal/analysis/errtyped"
	"repro/internal/analysis/goroleak"
	"repro/internal/analysis/hotalloc"
	"repro/internal/analysis/load"
	"repro/internal/analysis/locksafe"
	"repro/internal/analysis/policypure"
	"repro/internal/analysis/poollife"
)

var analyzers = []*analysis.Analyzer{
	policypure.Analyzer,
	detfree.Analyzer,
	poollife.Analyzer,
	errtyped.Analyzer,
	hotalloc.Analyzer,
	locksafe.Analyzer,
	goroleak.Analyzer,
}

func main() {
	os.Exit(run(filepath.Base(os.Args[0]), os.Args[1:]))
}

// jsonFinding is the -json output shape: one object per finding, one
// finding per line (JSON Lines), suppressed findings included.
type jsonFinding struct {
	Analyzer   string `json:"analyzer"`
	Pos        string `json:"pos"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

func run(progname string, args []string) int {
	jsonMode := false
	var rest []string
	for _, a := range args {
		if a == "-json" || a == "--json" {
			jsonMode = true
			continue
		}
		rest = append(rest, a)
	}
	selected, patterns := selectAnalyzers(rest)
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := load.New(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
		return 2
	}
	paths, err := loader.Expand(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
		return 2
	}
	session := driver.New(loader, selected)
	enc := json.NewEncoder(os.Stdout)
	exit := 0
	for _, path := range paths {
		findings, err := session.Run(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
			exit = 2
			continue
		}
		for _, f := range findings {
			pos := loader.Fset().Position(f.Diag.Pos).String()
			if jsonMode {
				enc.Encode(jsonFinding{
					Analyzer:   f.Analyzer,
					Pos:        pos,
					Message:    f.Diag.Message,
					Suppressed: f.Diag.Suppressed,
				})
			} else if !f.Diag.Suppressed {
				fmt.Printf("%s: %s [%s]\n", pos, f.Diag.Message, f.Analyzer)
			}
			if !f.Diag.Suppressed && exit == 0 {
				exit = 1
			}
		}
	}
	return exit
}

// selectAnalyzers consumes the analyzer flags in args (-<name>,
// -<name>=true|1, -<name>=false|0, with one or two dashes) and returns
// the analyzers to run plus the remaining arguments. If any analyzer
// is explicitly enabled, only the enabled ones run; otherwise all run
// except the explicitly disabled.
func selectAnalyzers(args []string) (selected []*analysis.Analyzer, rest []string) {
	enabled := map[string]bool{}
	for _, arg := range args {
		name, on, ok := analyzerFlag(arg)
		if !ok {
			rest = append(rest, arg)
			continue
		}
		enabled[name] = on
	}
	anyOn := false
	for _, on := range enabled {
		anyOn = anyOn || on
	}
	for _, a := range analyzers {
		if on, explicit := enabled[a.Name]; on || !explicit && !anyOn {
			selected = append(selected, a)
		}
	}
	return selected, rest
}

// analyzerFlag parses arg as an analyzer enable/disable flag.
func analyzerFlag(arg string) (name string, on, ok bool) {
	body, dash := strings.CutPrefix(arg, "-")
	if !dash {
		return "", false, false
	}
	body = strings.TrimPrefix(body, "-")
	name, val, hasVal := strings.Cut(body, "=")
	on = true
	if hasVal {
		switch val {
		case "true", "1":
		case "false", "0":
			on = false
		default:
			return "", false, false
		}
	}
	for _, a := range analyzers {
		if a.Name == name {
			return name, on, true
		}
	}
	return "", false, false
}
