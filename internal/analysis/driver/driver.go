// Package driver runs analyzers over source-loaded packages with
// cross-package facts, dependency-first: before a package is analyzed,
// the fact-producing analyzers run over its in-tree imports and leave
// their facts in one in-process FactStore. cmd/treeschedlint and
// analysistest both run through a Session, so the command line and the
// fixtures see the same facts.
package driver

import (
	"sort"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

// A Finding is one diagnostic attributed to its analyzer.
type Finding struct {
	Analyzer string
	Diag     analysis.Diagnostic
}

// A Session shares one fact store and one loader across many package
// analyses. Fact-producing analyzers are run over in-tree
// dependencies (facts kept, diagnostics discarded) before any
// dependent package is analyzed, so a package's findings never depend
// on the order packages were requested in.
type Session struct {
	Loader    *load.Loader
	Analyzers []*analysis.Analyzer

	store *analysis.FactStore
	// depDone marks packages whose fact pass already ran.
	depDone map[string]bool
}

// New returns a Session running the given analyzers.
func New(loader *load.Loader, analyzers []*analysis.Analyzer) *Session {
	return &Session{
		Loader:    loader,
		Analyzers: analyzers,
		store:     analysis.NewFactStore(),
		depDone:   map[string]bool{},
	}
}

// Run loads and analyzes one package, returning its findings in
// analyzer registration order, positionally sorted within each
// analyzer (suppressed findings included, marked). Fact passes over
// dependencies run first and are memoized across Run calls.
func (s *Session) Run(importPath string) ([]Finding, error) {
	pkg, err := s.Loader.Load(importPath)
	if err != nil {
		return nil, err
	}
	factAnalyzers := s.factAnalyzers()
	if len(factAnalyzers) > 0 {
		if err := s.analyzeDeps(pkg, factAnalyzers); err != nil {
			return nil, err
		}
	}
	// The package's own facts must exist too before its dependents
	// run; computing them here (as part of the full pass) marks it
	// done so a later dependent's dep walk skips it.
	s.depDone[importPath] = true

	var out []Finding
	for _, a := range s.Analyzers {
		diags, err := analysis.RunAnalyzer(a, s.Loader.Fset(), pkg.Files, pkg.Types, pkg.Info, s.store)
		if err != nil {
			return nil, err
		}
		for _, d := range diags {
			out = append(out, Finding{Analyzer: a.Name, Diag: d})
		}
	}
	return out, nil
}

func (s *Session) factAnalyzers() []*analysis.Analyzer {
	var out []*analysis.Analyzer
	for _, a := range s.Analyzers {
		if len(a.FactTypes) > 0 {
			out = append(out, a)
		}
	}
	return out
}

// analyzeDeps runs the fact analyzers over every in-tree dependency
// of pkg, dependencies before dependents.
func (s *Session) analyzeDeps(pkg *load.Package, factAnalyzers []*analysis.Analyzer) error {
	// Collect the transitive in-tree imports, then visit in
	// post-order (a package's imports are visited before it).
	var order []string
	seen := map[string]bool{pkg.Path: true}
	var visit func(p *load.Package) error
	visit = func(p *load.Package) error {
		imports := p.Types.Imports()
		// Imports() order follows source import order; sort for
		// run-to-run determinism of fact computation.
		paths := make([]string, 0, len(imports))
		for _, imp := range imports {
			paths = append(paths, imp.Path())
		}
		sort.Strings(paths)
		for _, path := range paths {
			if seen[path] || !s.Loader.InTree(path) {
				continue
			}
			seen[path] = true
			dep, err := s.Loader.Load(path)
			if err != nil {
				return err
			}
			if err := visit(dep); err != nil {
				return err
			}
			order = append(order, path)
		}
		return nil
	}
	if err := visit(pkg); err != nil {
		return err
	}
	for _, path := range order {
		if s.depDone[path] {
			continue
		}
		s.depDone[path] = true
		dep, err := s.Loader.Load(path)
		if err != nil {
			return err
		}
		for _, a := range factAnalyzers {
			// Diagnostics of a dependency visit are discarded: the
			// dependency gets its own full pass when (and if) it is
			// requested directly.
			if _, err := analysis.RunAnalyzer(a, s.Loader.Fset(), dep.Files, dep.Types, dep.Info, s.store); err != nil {
				return err
			}
		}
	}
	return nil
}
