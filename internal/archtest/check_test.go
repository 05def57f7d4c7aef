package archtest

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// module is the root module's path; a tree's import paths below it map to
// directories below the tree's root.
const module = "pasnet"

// A breach is one place a row's invariant does not hold.
type breach struct {
	pos string // file:line, the file a slash path from the tree's root
	msg string
}

// breaches checks r against the tree rooted at root, whose identifier
// sites are sites.
func (r row) breaches(root string, sites []site) ([]breach, error) {
	if r.forbid != "" {
		return reach(root, r.roots, module+"/"+r.forbid)
	}
	var out []breach
	for _, s := range sites {
		if !s.under(r.in) || r.funcs && s.decl != "func" || s.allowed(r.allow) {
			continue
		}
		for _, name := range r.names {
			if s.matches(name) {
				out = append(out, breach{s.file + ":" + strconv.Itoa(s.line), s.name + " (" + s.where() + ")"})
				break
			}
		}
	}
	return out, nil
}

// reach walks the module-local, non-test imports of roots under the
// host's build constraints, as `go list -deps` does, and reports the
// import that first enters forbid, with the chain that leads to it.
func reach(root string, roots []string, forbid string) ([]breach, error) {
	seen := map[string]bool{}
	var visit func(path string, chain []string) ([]breach, error)
	visit = func(path string, chain []string) ([]breach, error) {
		if seen[path] {
			return nil, nil
		}
		seen[path] = true
		chain = append(chain, path)
		pkg, err := build.Default.ImportDir(filepath.Join(root, strings.TrimPrefix(path, module)), 0)
		if err != nil {
			return nil, err
		}
		for _, imp := range pkg.Imports {
			if imp == forbid {
				p := pkg.ImportPos[imp][0]
				file, err := filepath.Rel(root, p.Filename)
				if err != nil {
					return nil, err
				}
				msg := strings.Join(append(chain, imp), " → ")
				return []breach{{filepath.ToSlash(file) + ":" + strconv.Itoa(p.Line), msg}}, nil
			}
			if strings.HasPrefix(imp, module+"/") {
				if b, err := visit(imp, chain); b != nil || err != nil {
					return b, err
				}
			}
		}
		return nil, nil
	}
	for _, r := range roots {
		if b, err := visit(module+"/"+r, nil); b != nil || err != nil {
			return b, err
		}
	}
	return nil, nil
}

// A site is one identifier in a non-test file. Comments and string
// literals hold no identifiers, so they never match.
type site struct {
	file   string // slash path from the tree's root
	line   int
	name   string
	pkg    string // the import path when qualified through an import (rng.New)
	member bool   // selected (x.name, pkg.name) or a composite-literal key (name: v)
	decl   string // "func" or "field" where a function, method or struct field is declared
	in     string // the top-level declaration it sits in: F, T.M, or a type or var name
}

// where places s within its file: "declares F", "declares T.M" or
// "declares T.Field" at a declaration, else "in F" or "in T.M".
func (s site) where() string {
	switch s.decl {
	case "func":
		return "declares " + s.in
	case "field":
		return "declares " + s.in + "." + s.name
	}
	return "in " + s.in
}

// under reports whether s is in one of the path prefixes in; a nil in is
// the whole tree.
func (s site) under(in []string) bool {
	for _, p := range in {
		if strings.HasPrefix(s.file, p) {
			return true
		}
	}
	return in == nil
}

// matches reports whether s is an occurrence of pattern: "Name" matches
// the identifier in any role, ".Name" only where it is selected or keyed,
// and "path.Name" only where it is qualified through an import of path,
// whatever the import's local name.
func (s site) matches(pattern string) bool {
	i := strings.LastIndexByte(pattern, '.')
	if s.name != pattern[i+1:] {
		return false
	}
	switch {
	case i < 0:
		return true
	case i == 0:
		return s.member
	}
	return s.pkg == pattern[:i]
}

// allowed reports whether one of allow admits s. An entry is a file, a
// directory ending in "/", "file: in F" for the sites inside the
// top-level declaration F, or "file: declares F" for one declaration
// alone (see where).
func (s site) allowed(allow []string) bool {
	for _, a := range allow {
		file, where, ok := strings.Cut(a, ": ")
		switch {
		case !ok && (s.file == a || strings.HasSuffix(a, "/") && strings.HasPrefix(s.file, a)):
			return true
		case ok && s.file == file && where == s.where():
			return true
		}
	}
	return false
}

// A tree is what load reads from a directory tree.
type tree struct {
	sites []site
	wants []string // file:line of each "// want" comment: a fixture's expected breaches
}

// load parses every non-test .go file under root, whatever its build
// constraints, skipping testdata and dot directories.
func load(t *testing.T, root string) tree {
	t.Helper()
	fset := token.NewFileSet()
	var tr tree
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		file := filepath.ToSlash(rel)
		tr.sites = append(tr.sites, fileSites(fset, file, f)...)
		for _, g := range f.Comments {
			for _, c := range g.List {
				if c.Text == "// want" {
					tr.wants = append(tr.wants, file+":"+strconv.Itoa(fset.Position(c.Pos()).Line))
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func fileSites(fset *token.FileSet, file string, f *ast.File) []site {
	imports := map[string]string{} // local name → import path
	for _, spec := range f.Imports {
		path, _ := strconv.Unquote(spec.Path.Value)
		name := path[strings.LastIndexByte(path, '/')+1:]
		if spec.Name != nil {
			name = spec.Name.Name
		}
		imports[name] = path
	}
	var (
		sites    []site
		in       string
		funcName *ast.Ident
	)
	add := func(id *ast.Ident, pkg string, member bool, decl string) {
		sites = append(sites, site{file, fset.Position(id.Pos()).Line, id.Name, pkg, member, decl, in})
	}
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			// A package qualifier is an identifier the parser did not
			// resolve to a local declaration.
			if x, ok := n.X.(*ast.Ident); ok && x.Obj == nil {
				if path, ok := imports[x.Name]; ok {
					add(n.Sel, path, true, "")
					return false
				}
			}
			ast.Inspect(n.X, visit)
			add(n.Sel, "", true, "")
			return false
		case *ast.KeyValueExpr:
			if key, ok := n.Key.(*ast.Ident); ok {
				add(key, "", true, "")
			} else {
				ast.Inspect(n.Key, visit)
			}
			ast.Inspect(n.Value, visit)
			return false
		case *ast.StructType:
			for _, field := range n.Fields.List {
				for _, id := range field.Names {
					add(id, "", false, "field")
				}
				ast.Inspect(field.Type, visit)
			}
			return false
		case *ast.Ident:
			if n == funcName {
				add(n, "", false, "func")
			} else {
				add(n, "", false, "")
			}
		}
		return true
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			in, funcName = d.Name.Name, d.Name
			if d.Recv != nil {
				in = recvType(d.Recv.List[0].Type) + "." + in
			}
			ast.Inspect(d, visit)
		case *ast.GenDecl:
			if d.Tok == token.IMPORT {
				continue
			}
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					in = spec.Name.Name
				case *ast.ValueSpec:
					in = spec.Names[0].Name
				}
				ast.Inspect(spec, visit)
			}
		}
	}
	return sites
}

// recvType names a method's receiver type: T for T, *T, T[P] and *T[P].
func recvType(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}
