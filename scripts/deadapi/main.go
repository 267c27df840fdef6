// Command deadapi reports product code that only tests use. It type-checks
// the non-test files of the module in the working directory (the standard
// library comes from the build cache's export data) and prints
// "file:line: name" for every func, method, field, package-level var and
// const, and type that no non-test code references, exiting 1 if there is
// any. bench/, cmd/ and examples/ count as users; bench/ and the root
// package, the module's facade, are never reported.
//
//	go run ./scripts/deadapi
//
// A field or package-level var is used only where it is read: the left
// side of an assignment or increment, the key of a keyed struct literal,
// and a read that only computes the same variable's next value
// (x.f = append(x.f, v)) are writes, not uses. So is a map's entry: an
// assignment to or increment of x.m[k], and delete(x.m, k) and clear(x.m),
// write m. Taking its address is a use. Every reference from bench/,
// which is frozen, counts.
//
// Besides a reference, these make a declaration used: a method a type
// provides to a method of an interface the module declares that non-test
// code calls or names; a method a type provides to an interface from
// outside the module that is the type of a non-test expression or type
// expression, or that fmt, encoding/json or sort reach on their own (and
// the embedded field that promotes it); a field with a struct tag
// (reflection reads it); a field of a struct that is compared with == or
// != or is a map's key type; a const whose block holds a used const (iota
// zero values).
package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strings"
)

// allowlist keeps declarations no non-test code uses, each with the reason
// production needs it ("a test uses it" is not one). An entry that names
// nothing unused is reported, so the list cannot outlive its reasons.
var allowlist = map[string]string{
	"experiments.ChaosOutcome.Journal":              "the chaos soak's determinism proof: byte-identical NDJSON per (seed, profile) at any worker count",
	"experiments.RecycleOutcome.Run":                "X7 the recycling soak's verdict (its Problems); the soak is the experiment",
	"experiments.RunFleetSoak":                      "the fleet lockdown soak; its test is the experiment",
	"experiments.RunRecoverySoak":                   "the supervised kill-storm recovery soak; its test is the experiment",
	"experiments.RunRecycleSoak":                    "the raw-iron recycling soak; its test is the experiment",
	"farm.Subfarm.Expire":                           "§6.7 inmate expiry (VLAN reused, global address burned); its test is the experiment",
	"gateway.NewGREPeer":                            "§7.2 GRE-tunnelled cooperating network; its test is the experiment",
	"gateway.GREPeer.Port":                          "§7.2 the GRE peer's outside interface, wired by its experiment",
	"rawiron.Controller.RestoreFromHiddenPartition": "X7 parallel hidden-partition restore; its test is the experiment",
}

// dynamicIfaces are interfaces the standard library reaches without non-test
// code naming them: by assertion (fmt, encoding/json) or as a parameter type
// (sort).
var dynamicIfaces = []string{"fmt.Stringer", "fmt.GoStringer", "fmt.Formatter",
	"encoding/json.Marshaler", "encoding/json.Unmarshaler",
	"encoding.TextMarshaler", "encoding.TextUnmarshaler", "sort.Interface"}

func main() {
	findings, err := check(".", allowlist)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadapi:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// pkg is one type-checked package of the module, its non-test files only.
type pkg struct {
	files []*ast.File
	info  *types.Info
	types *types.Package
}

// loader type-checks the module's packages from source on demand; it is
// the importer they are checked with.
type loader struct {
	root, module string
	fset         *token.FileSet
	std          types.Importer
	pkgs         map[string]*pkg
}

func (l *loader) Import(path string) (*types.Package, error) {
	if path != l.module && !strings.HasPrefix(path, l.module+"/") {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

// load returns the package at a module import path, nil if its directory
// holds no non-test Go file.
func (l *loader) load(path string) (*pkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, strings.TrimPrefix(path, l.module))
	bp, err := build.ImportDir(dir, 0)
	if _, none := err.(*build.NoGoError); none {
		return nil, nil
	} else if err != nil {
		return nil, err
	}
	p := &pkg{info: &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	p.types, err = (&types.Config{Importer: l}).Check(path, l.fset, p.files, p.info)
	l.pkgs[path] = p
	return p, err
}

// check returns the findings for the module at root, in file and line
// order, then the stale entries of allow.
func check(root string, allow map[string]string) ([]string, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	l := &loader{root: root, fset: token.NewFileSet(), std: importer.Default(), pkgs: map[string]*pkg{}}
	for _, line := range strings.Split(string(mod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			l.module = f[1]
		}
	}
	var pkgs []*pkg // in the walk's lexical order
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if _, nested := os.Stat(filepath.Join(dir, "go.mod")); dir != root &&
			(nested == nil || d.Name() == "testdata" || strings.ContainsAny(d.Name()[:1], "._")) {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(root, dir)
		p, err := l.load(path.Join(l.module, filepath.ToSlash(rel)))
		if p != nil {
			pkgs = append(pkgs, p)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	u := usage{module: l.module, used: map[types.Object]bool{}, seen: map[types.Type]bool{}}
	for _, p := range pkgs {
		u.scan(p, frozen(p.types.Path(), l.module))
	}
	for _, name := range dynamicIfaces {
		dot := strings.LastIndex(name, ".")
		p, err := l.std.Import(name[:dot])
		if err != nil {
			return nil, err
		}
		u.addIface(p.Scope().Lookup(name[dot+1:]).Type())
	}
	for _, p := range pkgs {
		u.implementations(p)
	}

	var findings, stale []string
	unused := map[string]bool{}
	for _, p := range pkgs {
		if path := p.types.Path(); path == l.module || frozen(path, l.module) {
			continue
		}
		unusedIn(p, u.used, func(obj types.Object, name string) {
			unused[name] = true
			if _, ok := allow[name]; !ok {
				pos := l.fset.Position(obj.Pos())
				file, _ := filepath.Rel(root, pos.Filename)
				findings = append(findings, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(file), pos.Line, name))
			}
		})
	}
	for name := range allow {
		if !unused[name] {
			stale = append(stale, "allowlisted but used or gone: "+name)
		}
	}
	slices.Sort(stale)
	return append(findings, stale...), nil
}

// frozen reports whether path is bench/ or below it.
func frozen(path, module string) bool {
	return path == module+"/bench" || strings.HasPrefix(path, module+"/bench/")
}

// unusedIn calls report, in source order, for each package-level
// declaration of p and field of its package-level struct types that used
// does not hold, named package.Type.member, and for each method of its
// package-level interface types.
func unusedIn(p *pkg, used map[types.Object]bool, report func(types.Object, string)) {
	add := func(obj types.Object, name string) {
		if obj.Name() != "_" && !used[obj] {
			report(obj, p.types.Name()+"."+name)
		}
	}
	for _, f := range p.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				if d.Recv != nil {
					t := p.info.Types[d.Recv.List[0].Type].Type
					if ptr, ok := t.(*types.Pointer); ok {
						t = ptr.Elem()
					}
					name = t.(*types.Named).Obj().Name() + "." + name
				} else if name == "init" || name == "main" && p.types.Name() == "main" {
					continue
				}
				add(p.info.Defs[d.Name], name)
			case *ast.GenDecl:
				var values []types.Object
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.ValueSpec:
						for _, id := range s.Names {
							values = append(values, p.info.Defs[id])
						}
					case *ast.TypeSpec:
						tn := p.info.Defs[s.Name]
						add(tn, s.Name.Name)
						switch t := tn.Type().Underlying().(type) {
						case *types.Struct:
							for i := 0; i < t.NumFields(); i++ {
								if t.Tag(i) == "" {
									add(t.Field(i), s.Name.Name+"."+t.Field(i).Name())
								}
							}
						case *types.Interface:
							for i := 0; i < t.NumExplicitMethods(); i++ {
								add(t.ExplicitMethod(i), s.Name.Name+"."+t.ExplicitMethod(i).Name())
							}
						}
					}
				}
				if d.Tok != token.CONST || !slices.ContainsFunc(values, func(o types.Object) bool { return used[o] }) {
					for _, obj := range values {
						add(obj, obj.Name())
					}
				}
			}
		}
	}
}

// usage is what non-test code uses, and the interfaces (with methods) it
// mentions.
type usage struct {
	module string
	used   map[types.Object]bool
	seen   map[types.Type]bool
	ifaces []*types.Interface
}

func (u *usage) use(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	u.used[obj] = true
}

// usePath marks used the embedded fields a selection on recv passes
// through: all but the last step of its index path.
func (u *usage) usePath(recv types.Type, index []int) {
	for _, i := range index[:len(index)-1] {
		if ptr, ok := recv.Underlying().(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		st, ok := recv.Underlying().(*types.Struct)
		if !ok {
			return
		}
		u.use(st.Field(i))
		recv = st.Field(i).Type()
	}
}

// scan records p's reads (every reference if p is frozen), the interfaces
// its expressions and type expressions have as types, and the fields of
// the structs it compares or keys maps by.
func (u *usage) scan(p *pkg, frozen bool) {
	writes := map[*ast.Ident]bool{}
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if id := stored(p, lhs); id != nil {
						writes[id] = true
						if len(n.Rhs) == len(n.Lhs) {
							selfReads(p, n.Rhs[i], p.info.Uses[id], writes)
						}
					}
				}
			case *ast.IncDecStmt:
				if id := stored(p, n.X); id != nil {
					writes[id] = true
				}
			case *ast.CallExpr:
				fn, _ := ast.Unparen(n.Fun).(*ast.Ident)
				if b, ok := p.info.Uses[fn].(*types.Builtin); ok && (b.Name() == "delete" || b.Name() == "clear") {
					if id := storedMap(p, n.Args[0]); id != nil {
						writes[id] = true
					}
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					if v, ok := p.info.Uses[id].(*types.Var); ok && v.IsField() {
						writes[id] = true
					}
				}
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					u.useFields(p.info.Types[n.X].Type)
				}
			}
			return true
		})
	}
	for id, obj := range p.info.Uses {
		if frozen || !writes[id] {
			u.use(obj)
		}
	}
	for _, sel := range p.info.Selections {
		u.usePath(sel.Recv(), sel.Index())
	}
	for _, tv := range p.info.Types {
		u.addIface(tv.Type)
		if m, ok := tv.Type.Underlying().(*types.Map); ok {
			u.useFields(m.Key())
		}
	}
}

// stored returns the identifier of the field or package-level var that
// an assignment to e writes, nil if e is not one.
func stored(p *pkg, e ast.Expr) *ast.Ident {
	if ix, ok := ast.Unparen(e).(*ast.IndexExpr); ok {
		return storedMap(p, ix.X)
	}
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	v, ok := p.info.Uses[id].(*types.Var)
	if !ok || !v.IsField() && v.Parent() != v.Pkg().Scope() {
		return nil
	}
	return id
}

// storedMap is stored for m, a map whose entries are assigned, deleted or
// cleared; nil if m is not a map.
func storedMap(p *pkg, m ast.Expr) *ast.Ident {
	if _, ok := p.info.TypeOf(m).Underlying().(*types.Map); !ok {
		return nil
	}
	return stored(p, m)
}

// selfReads marks as a write the read of v in e, the value assigned to v,
// that only computes that value: the first argument of append.
func selfReads(p *pkg, e ast.Expr, v types.Object, writes map[*ast.Ident]bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return
	}
	fn, _ := ast.Unparen(call.Fun).(*ast.Ident)
	if b, ok := p.info.Uses[fn].(*types.Builtin); ok && b.Name() == "append" {
		if id := stored(p, call.Args[0]); id != nil && p.info.Uses[id] == v {
			writes[id] = true
		}
	}
}

// useFields marks used every field of t, a struct or array compared as a
// whole or a map key, and of the struct and array values inside it.
func (u *usage) useFields(t types.Type) {
	switch t := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			u.use(t.Field(i))
			u.useFields(t.Field(i).Type())
		}
	case *types.Array:
		u.useFields(t.Elem())
	}
}

// addIface records t if it is an interface with methods.
func (u *usage) addIface(t types.Type) {
	if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !u.seen[t] {
		u.seen[t] = true
		u.ifaces = append(u.ifaces, it)
	}
}

// implementations marks used each method that a type declared in p, or a
// pointer to it, provides to an interface it implements: to a method of an
// interface the module declares only if that method is used.
func (u *usage) implementations(p *pkg) {
	for _, name := range p.types.Scope().Names() {
		n, ok := p.types.Scope().Lookup(name).Type().(*types.Named)
		if !ok || types.IsInterface(n) || n.TypeParams().Len() > 0 {
			continue
		}
		for _, t := range []types.Type{n, types.NewPointer(n)} {
			ms := types.NewMethodSet(t)
			for _, it := range u.ifaces {
				if ms.Lookup(it.Method(0).Pkg(), it.Method(0).Name()) == nil || !types.Implements(t, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					if m.Pkg() != nil && !u.used[m.Origin()] && (m.Pkg().Path() == u.module || strings.HasPrefix(m.Pkg().Path(), u.module+"/")) {
						continue
					}
					sel := ms.Lookup(m.Pkg(), m.Name())
					u.use(sel.Obj())
					u.usePath(t, sel.Index())
				}
			}
		}
	}
}
