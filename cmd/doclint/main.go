// Command doclint enforces the repository's documentation conventions,
// beyond what go vet checks:
//
//   - every exported identifier in the public package (the module root)
//     carries a doc comment;
//   - every internal package has a doc.go whose package comment explains
//     the package's role;
//   - every command has a package comment describing its usage;
//   - every exported identifier in internal/fabric (the operator-facing
//     distribution layer) carries a doc comment, same bar as the public
//     package;
//   - every HTTP route registered in code via HandleFunc("METHOD /path")
//     appears verbatim in OPERATIONS.md, so the operator API reference
//     cannot silently go stale;
//   - every flag cmd/gputlbd registers appears as -name in OPERATIONS.md,
//     and every row of OPERATIONS.md's "| flag |" table and README's
//     "Flag (gputlbd)" table names backticked flags gputlbd registers
//     only, so neither document lists a removed flag or misses a new one;
//   - every translation mechanism tlbmech.Known() returns appears
//     backticked in README's -mech row, so the documented mechanism list
//     cannot go stale;
//   - README's "Config names accepted in grids" list names exactly
//     experiments.ConfigNames(), so a job author sees every config a
//     daemon accepts and no other;
//   - the -policy of every gputlbsim command line in a Markdown file
//     (CHANGES.md, a record of past command lines, aside) or a Go file
//     names one of experiments.ConfigNames(), the names -policy accepts;
//   - every `jobs.CellSpec.<Field>` README names is a CellSpec field, and
//     a `"<tag>"` paired with it ("`jobs.CellSpec.X` / `"x"`") is that
//     field's JSON tag, so a removed or renamed field cannot linger in
//     the docs.
//
// It exits non-zero listing each violation, so `make docs-lint` (and CI)
// fail when an undocumented identifier, an uncommented package, or an
// undocumented endpoint lands.
//
//	doclint [module-root]
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"

	"gputlb/internal/experiments"
	"gputlb/internal/tlbmech"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	var problems []string
	report := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	lintPublicPackage(root, report)
	// The fabric package is the operator-facing distribution layer; its
	// exports are held to the public package's documentation bar.
	lintPublicPackage(filepath.Join(root, "internal", "fabric"), report)
	lintInternalPackages(filepath.Join(root, "internal"), report)
	lintCommands(filepath.Join(root, "cmd"), report)
	lintRegisteredRoutes(root, report)
	lintDaemonFlags(root, report)
	lintMechRow(root, tlbmech.Known(), report)
	lintConfigNames(root, experiments.ConfigNames(), report)
	lintPolicyNames(root, experiments.ConfigNames(), report)
	lintCellSpecFields(root, jsonTags(reflect.TypeOf(experiments.CellSpec{})), report)

	sort.Strings(problems)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "doclint: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
}

// parseDir parses the non-test Go files of one directory.
func parseDir(dir string) (map[string]*ast.Package, *token.FileSet, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	return pkgs, fset, err
}

// lintPublicPackage requires a doc comment on every exported top-level
// identifier of the package in dir. A comment on a grouped declaration
// (`// Architectural enums.` above a const block) covers the group.
func lintPublicPackage(dir string, report func(string, ...any)) {
	pkgs, fset, err := parseDir(dir)
	if err != nil {
		report("%s: %v", dir, err)
		return
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && d.Doc == nil {
						report("%s: exported %s %s is undocumented",
							fset.Position(d.Pos()), declKind(d), d.Name.Name)
					}
				case *ast.GenDecl:
					lintGenDecl(fset, d, report)
				}
			}
		}
	}
}

func declKind(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return "method"
	}
	return "function"
}

// lintGenDecl checks a const/var/type declaration. The declaration's own
// doc comment covers every spec inside it; otherwise each exported spec
// needs its own.
func lintGenDecl(fset *token.FileSet, d *ast.GenDecl, report func(string, ...any)) {
	if d.Tok != token.CONST && d.Tok != token.VAR && d.Tok != token.TYPE {
		return
	}
	if d.Doc != nil {
		return
	}
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && s.Doc == nil && s.Comment == nil {
				report("%s: exported type %s is undocumented", fset.Position(s.Pos()), s.Name.Name)
			}
		case *ast.ValueSpec:
			if s.Doc != nil || s.Comment != nil {
				continue
			}
			for _, name := range s.Names {
				if name.IsExported() {
					report("%s: exported %s %s is undocumented",
						fset.Position(s.Pos()), d.Tok, name.Name)
				}
			}
		}
	}
}

// lintInternalPackages requires each package under dir to have a doc.go
// carrying the package comment.
func lintInternalPackages(dir string, report func(string, ...any)) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		report("%s: %v", dir, err)
		return
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		pkgDir := filepath.Join(dir, e.Name())
		docPath := filepath.Join(pkgDir, "doc.go")
		if _, err := os.Stat(docPath); err != nil {
			report("%s: package has no doc.go", pkgDir)
			continue
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, docPath, nil, parser.ParseComments)
		if err != nil {
			report("%s: %v", docPath, err)
			continue
		}
		if f.Doc == nil || len(strings.TrimSpace(f.Doc.Text())) == 0 {
			report("%s: doc.go has no package comment", docPath)
		} else if !strings.HasPrefix(f.Doc.Text(), "Package "+f.Name.Name) {
			report("%s: package comment must start with %q", docPath, "Package "+f.Name.Name)
		}
	}
}

// lintRegisteredRoutes cross-checks the served HTTP surface against the
// operator reference: every route registered anywhere under internal/ or
// cmd/ as a HandleFunc("METHOD /path") literal must appear verbatim in
// OPERATIONS.md.
func lintRegisteredRoutes(root string, report func(string, ...any)) {
	ops, err := os.ReadFile(filepath.Join(root, "OPERATIONS.md"))
	if err != nil {
		report("%s: OPERATIONS.md (the endpoint reference) is unreadable: %v", root, err)
		return
	}
	opsText := string(ops)
	routes := map[string]token.Position{}
	for _, sub := range []string{"internal", "cmd"} {
		filepath.WalkDir(filepath.Join(root, sub), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return nil // build breakage is the compiler's problem
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "HandleFunc" {
					return true
				}
				lit, ok := call.Args[0].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					return true
				}
				pattern, err := strconv.Unquote(lit.Value)
				if err != nil || !strings.Contains(pattern, " /") {
					return true // not a "METHOD /path" route pattern
				}
				if _, seen := routes[pattern]; !seen {
					routes[pattern] = fset.Position(lit.Pos())
				}
				return true
			})
			return nil
		})
	}
	for pattern, pos := range routes {
		if !strings.Contains(opsText, pattern) {
			report("%s: route %q is served but missing from OPERATIONS.md", pos, pattern)
		}
	}
}

// flagDefiners are the flag package's functions that define a flag; the
// flag's name is the first string literal among their arguments.
var flagDefiners = map[string]bool{
	"Bool": true, "BoolVar": true, "BoolFunc": true, "Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true, "Func": true, "Int": true, "IntVar": true,
	"Int64": true, "Int64Var": true, "String": true, "StringVar": true, "TextVar": true,
	"Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true, "Var": true,
}

// flagToken matches a -name flag written in prose or a table cell.
var flagToken = regexp.MustCompile(`(?:^|[^\w-])-([a-z][a-z0-9-]*)`)

// lintDaemonFlags cross-checks gputlbd's command line against the docs:
// each flag cmd/gputlbd/main.go registers must appear as -name in
// OPERATIONS.md, and each row of OPERATIONS.md's "| flag |" tables and of
// README's "Flag (gputlbd)" table must name registered flags only.
func lintDaemonFlags(root string, report func(string, ...any)) {
	mainPath := filepath.Join(root, "cmd", "gputlbd", "main.go")
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, mainPath, nil, 0)
	if err != nil {
		report("%s: %v", mainPath, err)
		return
	}
	flags := map[string]token.Position{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !flagDefiners[sel.Sel.Name] {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		for _, arg := range call.Args {
			if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if name, err := strconv.Unquote(lit.Value); err == nil {
					flags[name] = fset.Position(lit.Pos())
				}
				break
			}
		}
		return true
	})

	documented := map[string]bool{}
	if ops, err := os.ReadFile(filepath.Join(root, "OPERATIONS.md")); err != nil {
		report("%s: OPERATIONS.md (the flag reference) is unreadable: %v", root, err)
	} else {
		for _, m := range flagToken.FindAllStringSubmatch(string(ops), -1) {
			documented[m[1]] = true
		}
		for name, pos := range flags {
			if !documented[name] {
				report("%s: gputlbd flag -%s is missing from OPERATIONS.md", pos, name)
			}
		}
		lintFlagTable("OPERATIONS.md", string(ops), "| flag |", flags, report)
	}

	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		report("%s: README.md is unreadable: %v", root, err)
		return
	}
	lintFlagTable("README.md", string(readme), "| Flag (gputlbd) |", flags, report)
}

// lintFlagTable requires every row of each table in doc whose header line
// starts with header to name, backticked, at least one flag, and only
// flags gputlbd registers.
func lintFlagTable(name, doc, header string, flags map[string]token.Position, report func(string, ...any)) {
	inTable := false
	for i, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(line, header) {
			inTable = true
			continue
		}
		if !inTable {
			continue
		}
		if !strings.HasPrefix(line, "|") {
			inTable = false
			continue
		}
		if strings.HasPrefix(line, "|---") {
			continue
		}
		named := 0
		spans := strings.Split(line, "`")
		for k := 1; k < len(spans); k += 2 { // the backticked spans
			for _, m := range flagToken.FindAllStringSubmatch(spans[k], -1) {
				named++
				if _, ok := flags[m[1]]; !ok {
					report("%s:%d: -%s is in the gputlbd flag table but gputlbd has no such flag", name, i+1, m[1])
				}
			}
		}
		if named == 0 {
			report("%s:%d: a gputlbd flag table row names no flag", name, i+1)
		}
	}
}

// lintMechRow requires each mechanism name to appear backticked in
// README's -mech row (the table row starting "| `-mech`").
func lintMechRow(root string, mechs []string, report func(string, ...any)) {
	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		report("%s: README.md is unreadable: %v", root, err)
		return
	}
	for i, line := range strings.Split(string(readme), "\n") {
		if !strings.HasPrefix(line, "| `-mech`") {
			continue
		}
		for _, m := range mechs {
			if !strings.Contains(line, "`"+m+"`") {
				report("README.md:%d: mechanism %s is missing from the -mech row", i+1, m)
			}
		}
		return
	}
	report("README.md: no -mech row (a table row starting \"| `-mech`\") to list the mechanisms")
}

// configListLabel opens README's list of the configs a grid job accepts.
const configListLabel = "Config names accepted in grids:"

// lintConfigNames requires the backticked names after README's
// configListLabel, up to the first ";", to be exactly names.
func lintConfigNames(root string, names []string, report func(string, ...any)) {
	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		report("%s: README.md is unreadable: %v", root, err)
		return
	}
	text := string(readme)
	at := strings.Index(text, configListLabel)
	if at < 0 {
		report("README.md: no %q list to name the grid configs", configListLabel)
		return
	}
	line := strings.Count(text[:at], "\n") + 1
	list, _, _ := strings.Cut(text[at+len(configListLabel):], ";")
	listed := map[string]bool{}
	spans := strings.Split(list, "`")
	for k := 1; k < len(spans); k += 2 { // the backticked spans
		listed[spans[k]] = true
	}
	for _, n := range names {
		if !listed[n] {
			report("README.md:%d: config %s is missing from the grid config list", line, n)
		}
		delete(listed, n)
	}
	for n := range listed {
		report("README.md:%d: %s is in the grid config list but is no config name", line, n)
	}
}

// policyRef matches the -policy value of a gputlbsim command line, if it
// is a name and not a placeholder such as <name>.
var policyRef = regexp.MustCompile("gputlbsim\\b[^`\n]*?\\s-policy[ =]([a-z][^\\s`'\")]*)")

// lintPolicyNames requires the -policy value of every gputlbsim command
// line in the Markdown files under root (but CHANGES.md, a record of past
// command lines) and in its non-test Go files to be one of names.
func lintPolicyNames(root string, names []string, report func(string, ...any)) {
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		doc := strings.HasSuffix(path, ".md") && !strings.HasSuffix(path, "CHANGES.md") ||
			strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go")
		if err != nil || !doc {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			report("%s: %v", path, err)
			return nil
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range policyRef.FindAllStringSubmatch(line, -1) {
				if !slices.Contains(names, m[1]) {
					report("%s:%d: gputlbsim -policy %s names no config (one of %s)", path, i+1, m[1], strings.Join(names, ", "))
				}
			}
		}
		return nil
	})
}

// jsonTags maps each field of struct type t to its JSON name.
func jsonTags(t reflect.Type) map[string]string {
	tags := map[string]string{}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		tags[f.Name] = name
	}
	return tags
}

// cellSpecRef matches a backticked jobs.CellSpec field in README, with the
// backticked JSON tag a "`jobs.CellSpec.X` / `"x"`" row pairs with it.
var cellSpecRef = regexp.MustCompile("`jobs\\.CellSpec\\.(\\w+)`(?: / `\"([^\"`]*)\"`)?")

// lintCellSpecFields requires every jobs.CellSpec field README names to be
// a key of tags (field name to JSON tag), and a tag paired with it to be
// that field's.
func lintCellSpecFields(root string, tags map[string]string, report func(string, ...any)) {
	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		report("%s: README.md is unreadable: %v", root, err)
		return
	}
	for i, line := range strings.Split(string(readme), "\n") {
		for _, m := range cellSpecRef.FindAllStringSubmatch(line, -1) {
			tag, ok := tags[m[1]]
			switch {
			case !ok:
				report("README.md:%d: jobs.CellSpec has no field %s", i+1, m[1])
			case m[2] != "" && m[2] != tag:
				report("README.md:%d: jobs.CellSpec.%s's JSON tag is %q, not %q", i+1, m[1], tag, m[2])
			}
		}
	}
}

// lintCommands requires a package comment (on any file) for each command.
func lintCommands(dir string, report func(string, ...any)) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		report("%s: %v", dir, err)
		return
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		cmdDir := filepath.Join(dir, e.Name())
		pkgs, _, err := parseDir(cmdDir)
		if err != nil {
			report("%s: %v", cmdDir, err)
			continue
		}
		for _, pkg := range pkgs {
			documented := false
			for _, file := range pkg.Files {
				if file.Doc != nil && strings.TrimSpace(file.Doc.Text()) != "" {
					documented = true
				}
			}
			if !documented {
				report("%s: command has no package comment", cmdDir)
			}
		}
	}
}
