package pai_test

import (
	"bytes"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestAPISurface pins package pai's exported surface to api.txt: every
// exported func, method (with its signature), type, const and var, one per
// line, sorted. A change to the surface fails with the lines added (+) and
// removed (-); commit the new api.txt with the change, so the diff of every
// API change shows in review.
func TestAPISurface(t *testing.T) {
	got := apiSurface(t)
	raw, err := os.ReadFile("api.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.FieldsFunc(string(raw), func(r rune) bool { return r == '\n' })
	var diff []string
	for i, j := 0, 0; i < len(want) || j < len(got); {
		switch {
		case j == len(got) || (i < len(want) && want[i] < got[j]):
			diff = append(diff, "- "+want[i])
			i++
		case i == len(want) || got[j] < want[i]:
			diff = append(diff, "+ "+got[j])
			j++
		default:
			i++
			j++
		}
	}
	if len(diff) > 0 {
		t.Errorf("exported surface differs from api.txt:\n%s", strings.Join(diff, "\n"))
	}
}

// apiSurface lists the exported declarations of the package's non-test
// files, sorted.
func apiSurface(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := pkgs["pai"]
	if !ok {
		t.Fatal("no package pai in the module root")
	}
	d := doc.New(p, "repro", 0)
	render := func(node any) string {
		var buf bytes.Buffer
		if err := printer.Fprint(&buf, fset, node); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	var lines []string
	funcs := func(fs []*doc.Func) {
		for _, f := range fs {
			decl := *f.Decl
			decl.Doc, decl.Body = nil, nil
			lines = append(lines, render(&decl))
		}
	}
	values := func(kind string, vs []*doc.Value) {
		for _, v := range vs {
			for _, name := range v.Names {
				if ast.IsExported(name) {
					lines = append(lines, kind+" "+name)
				}
			}
		}
	}
	values("const", d.Consts)
	values("var", d.Vars)
	funcs(d.Funcs)
	for _, ty := range d.Types {
		for _, spec := range ty.Decl.Specs {
			if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.Name == ty.Name {
				lines = append(lines, typeLine(ts, render))
			}
		}
		values("const", ty.Consts)
		values("var", ty.Vars)
		funcs(ty.Funcs)
		funcs(ty.Methods)
	}
	sort.Strings(lines)
	return lines
}

// typeLine is a type's declaration header: the aliased or underlying type,
// or just the kind for structs and interfaces, whose members are listed
// through their methods.
func typeLine(ts *ast.TypeSpec, render func(any) string) string {
	switch {
	case ts.Assign.IsValid():
		return "type " + ts.Name.Name + " = " + render(ts.Type)
	case isKind[*ast.StructType](ts.Type):
		return "type " + ts.Name.Name + " struct"
	case isKind[*ast.InterfaceType](ts.Type):
		return "type " + ts.Name.Name + " interface"
	}
	return "type " + ts.Name.Name + " " + render(ts.Type)
}

func isKind[T ast.Expr](e ast.Expr) bool {
	_, ok := e.(T)
	return ok
}
