package analyzers

import (
	"go/ast"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestRepoCleanAndDirectivesLoadBearing is the in-process version of the
// CI lint gate, plus the guarantee the directive corpus stays honest:
//
//  1. the production suite over the whole module reports nothing, and
//  2. removing ANY single //pwcetlint: directive makes the suite report
//     again — every suppression in the tree covers a live finding, so a
//     reviewer can trust that each justification was written against
//     real code, not left behind by refactoring.
//
// (2) is checked by blanking one directive comment at a time in the
// loaded syntax trees and re-running the suite on the affected package.
func TestRepoCleanAndDirectivesLoadBearing(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(pkgs, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("repo not lint-clean: %s", d)
	}
	if t.Failed() {
		return
	}

	checked := 0
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, directivePrefix) {
						continue
					}
					orig := c.Text
					c.Text = "// directive blanked by TestRepoCleanAndDirectivesLoadBearing"
					after, err := Run([]*Package{pkg}, All())
					c.Text = orig
					if err != nil {
						t.Fatal(err)
					}
					if len(after) == 0 {
						t.Errorf("%s: removing directive %q surfaces no finding; the suppression is stale",
							pkg.Fset.Position(c.Pos()), orig)
					}
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Error("no //pwcetlint: directives found in the module; expected the reviewed absint annotations")
	}
}

// TestRefPurityRulesMatchDeclaredFunctions keeps DefaultRefPurityRules
// from going vacuous: every Root and every Forbidden pattern must match
// at least one function declared in its rule's package. A rule whose
// reference root (or guarded optimized path) was renamed or deleted
// would otherwise pass the lint silently while checking nothing.
func TestRefPurityRulesMatchDeclaredFunctions(t *testing.T) {
	var paths []string
	for _, r := range DefaultRefPurityRules {
		paths = append(paths, r.PkgPath)
	}
	pkgs, err := Load("../..", paths...)
	if err != nil {
		t.Fatal(err)
	}
	declared := make(map[string][]string)
	for _, pkg := range pkgs {
		pass := &Pass{Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, Info: pkg.Info}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok {
					declared[pkg.Path] = append(declared[pkg.Path], funcIdentity(pass, fd))
				}
			}
		}
	}
	for _, r := range DefaultRefPurityRules {
		ids := declared[r.PkgPath]
		for _, re := range []*regexp.Regexp{r.Root, r.Forbidden} {
			if !slices.ContainsFunc(ids, re.MatchString) {
				t.Errorf("refpurity rule for %s: %s matches no function declared there; the rule checks nothing", r.PkgPath, re)
			}
		}
	}
}
