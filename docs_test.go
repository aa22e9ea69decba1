package mmx

import (
	"bufio"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The documents a reader follows into the code. benchmark/README.md is
// left out by name: it describes the benchmark module, which changes
// only together with its baseline. CHANGES.md and ROADMAP.md are history
// and plans, not descriptions of the tree, and are not scanned.
var referenceDocs = []string{
	"README.md",
	"DESIGN.md",
	"EXPERIMENTS.md",
	".claude/skills/verify/SKILL.md",
}

// designMaxBytes bounds DESIGN.md: the design stated once, per layer,
// with its dated records kept in CHANGES.md instead.
const designMaxBytes = 40000

// TestDocsReferToCodeThatExists resolves every backticked span of the
// reference docs that looks like a code reference against the tree: a
// qualified name (pkg.Name, Type.Method, Type.Field, field chains), a
// mixed-case identifier, a repository path, a make target, a command-line
// flag of the command it is passed to, and every command in a shell
// block.
func TestDocsReferToCodeThatExists(t *testing.T) {
	ix := buildDocIndex(t)
	for _, doc := range referenceDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range docSpans(string(text)) {
			if why := ix.check(sp.text, sp.shell); why != "" {
				t.Errorf("%s:%d: `%s`: %s", doc, sp.line, sp.text, why)
			}
		}
	}
}

// TestDesignSectionReferencesResolve checks every "DESIGN.md §N" in the
// reference docs, in Go comments outside benchmark/ and in the CI
// workflow against DESIGN.md's numbered sections.
func TestDesignSectionReferencesResolve(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^## (\d+)\. `).FindAllStringSubmatch(string(design), -1) {
		sections[m[1]] = true
	}
	ref := regexp.MustCompile(`DESIGN\.md\s+§(\d+)`)
	scan := func(file, text string) {
		for _, loc := range ref.FindAllStringSubmatchIndex(text, -1) {
			if n := text[loc[2]:loc[3]]; !sections[n] {
				t.Errorf("%s:%d: DESIGN.md §%s names no section", file, 1+strings.Count(text[:loc[0]], "\n"), n)
			}
		}
	}
	files := append([]string{".github/workflows/ci.yml"}, referenceDocs...)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		scan(f, string(b))
	}
	fset := token.NewFileSet()
	for _, f := range repoGoFiles(t, false) {
		file, err := parser.ParseFile(fset, f, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, cg := range file.Comments {
			line := fset.Position(cg.Pos()).Line
			for _, m := range ref.FindAllStringSubmatch(cg.Text(), -1) {
				if !sections[m[1]] {
					t.Errorf("%s:%d: DESIGN.md §%s names no section", f, line, m[1])
				}
			}
		}
	}
}

// TestDesignIsBoundedAndUndated holds DESIGN.md to its size bound and
// keeps history out of it: no commit hash, no ISO date, no PR number.
func TestDesignIsBoundedAndUndated(t *testing.T) {
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if len(b) > designMaxBytes {
		t.Errorf("DESIGN.md is %d B, over its %d B bound", len(b), designMaxBytes)
	}
	text := string(b)
	for _, m := range regexp.MustCompile(`\b[0-9a-f]{7,40}\b`).FindAllString(text, -1) {
		if strings.ContainsAny(m, "0123456789") && strings.ContainsAny(m, "abcdef") {
			t.Errorf("DESIGN.md holds a commit hash: %s", m)
		}
	}
	for _, re := range []string{`\b\d{4}-\d{2}-\d{2}\b`, `\bPRs? \d+`} {
		for _, m := range regexp.MustCompile(re).FindAllString(text, -1) {
			t.Errorf("DESIGN.md holds a dated record: %q", m)
		}
	}
}

type docSpan struct {
	text  string
	line  int
	shell bool // a line of a shell code block
}

// docSpans returns the inline code spans of a Markdown text, whitespace
// collapsed, and each line of its sh code blocks. Other fenced blocks
// (Go, program output) are skipped.
func docSpans(text string) []docSpan {
	var out []docSpan
	var prose strings.Builder
	fence, shell := false, false
	lines := strings.Split(text, "\n")
	lineOf := make([]int, 0, len(text)) // prose byte → source line
	for i, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "```") {
			if !fence {
				lang := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(l), "```"))
				shell = lang == "sh" || lang == "bash"
			}
			fence = !fence
			l = ""
		} else if fence {
			if cmd := strings.TrimSpace(strings.SplitN(l, "#", 2)[0]); shell && cmd != "" && !strings.HasSuffix(cmd, "\\") {
				out = append(out, docSpan{text: cmd, line: i + 1, shell: true})
			}
			l = ""
		}
		prose.WriteString(l)
		prose.WriteByte('\n')
		for j := 0; j <= len(l); j++ {
			lineOf = append(lineOf, i+1)
		}
	}
	p := prose.String()
	for _, loc := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatchIndex(p, -1) {
		s := strings.Join(strings.Fields(p[loc[2]:loc[3]]), " ")
		out = append(out, docSpan{text: s, line: lineOf[loc[0]]})
	}
	return out
}

// docIndex is what the tree declares.
type docIndex struct {
	root     map[string]bool            // entries at the repository root
	bases    map[string]bool            // base name of every file
	names    map[string]bool            // every declared identifier
	members  map[string]map[string]bool // type or "pkg:" name → fields and methods
	embeds   map[string][]string        // type → embedded type names
	typeOf   map[string]map[string]bool // identifier → the type names it may hold
	pkgs     map[string]bool            // repository package names
	imports  map[string]string          // local name → non-repository import path
	indexed  map[string]bool            // non-repository packages already indexed
	flags    map[string]map[string]bool // command → its flags
	allFlags map[string]bool
	targets  map[string]bool // Makefile targets
	fset     *token.FileSet
}

// repoGoFiles lists the repository's Go files, tests included;
// withBenchmark adds the benchmark module's.
func repoGoFiles(t *testing.T, withBenchmark bool) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(".", func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || (!withBenchmark && p == "benchmark")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func buildDocIndex(t *testing.T) *docIndex {
	t.Helper()
	ix := &docIndex{
		root: map[string]bool{}, bases: map[string]bool{}, names: map[string]bool{},
		members: map[string]map[string]bool{}, embeds: map[string][]string{},
		typeOf: map[string]map[string]bool{}, pkgs: map[string]bool{"mmx": true},
		imports: map[string]string{}, indexed: map[string]bool{},
		flags: map[string]map[string]bool{}, allFlags: map[string]bool{},
		targets: map[string]bool{}, fset: token.NewFileSet(),
	}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		ix.root[e.Name()] = true
	}
	err = filepath.WalkDir(".", func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != "." && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		ix.bases[d.Name()] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range repoGoFiles(t, true) {
		file, err := parser.ParseFile(ix.fset, f, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		pkg := file.Name.Name
		if pkg == "main" {
			pkg = filepath.Base(filepath.Dir(f))
		}
		ix.pkgs[pkg] = true
		for _, imp := range file.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if p == "mmx" || strings.HasPrefix(p, "mmx/") {
				continue
			}
			name := path.Base(p)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			ix.imports[name] = p
		}
		ix.addFile(pkg, file)
		if file.Name.Name == "main" {
			ix.addFlags(filepath.Base(filepath.Dir(f)), file)
		}
	}
	mk, err := os.Open("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	defer mk.Close()
	target := regexp.MustCompile(`^([A-Za-z0-9_-]+):`)
	for sc := bufio.NewScanner(mk); sc.Scan(); {
		if m := target.FindStringSubmatch(sc.Text()); m != nil {
			ix.targets[m[1]] = true
		}
	}
	return ix
}

func (ix *docIndex) member(scope, name string) {
	if ix.members[scope] == nil {
		ix.members[scope] = map[string]bool{}
	}
	ix.members[scope][name] = true
	ix.names[name] = true
}

func (ix *docIndex) typed(name string, typ ast.Expr) {
	if tn := typeName(typ); tn != "" {
		if ix.typeOf[name] == nil {
			ix.typeOf[name] = map[string]bool{}
		}
		ix.typeOf[name][tn] = true
	}
}

// typeName is the named type an expression holds or points at: the
// element type of a slice, array, map or channel.
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.ArrayType:
		return typeName(e.Elt)
	case *ast.MapType:
		return typeName(e.Value)
	case *ast.ChanType:
		return typeName(e.Value)
	case *ast.IndexExpr:
		return typeName(e.X)
	case *ast.IndexListExpr:
		return typeName(e.X)
	case *ast.ParenExpr:
		return typeName(e.X)
	}
	return ""
}

func (ix *docIndex) fields(owner string, fl *ast.FieldList) {
	if fl == nil {
		return
	}
	for _, f := range fl.List {
		if len(f.Names) == 0 && owner != "" {
			if tn := typeName(f.Type); tn != "" {
				ix.embeds[owner] = append(ix.embeds[owner], tn)
				ix.member(owner, tn)
				ix.typed(tn, f.Type)
			}
		}
		for _, n := range f.Names {
			if owner != "" {
				ix.member(owner, n.Name)
			}
			ix.names[n.Name] = true
			ix.typed(n.Name, f.Type)
		}
		ix.typeBody(f.Type)
	}
}

// typeBody indexes the members of an anonymous struct or interface type.
func (ix *docIndex) typeBody(e ast.Expr) {
	switch e := e.(type) {
	case *ast.StructType:
		ix.fields("", e.Fields)
	case *ast.InterfaceType:
		ix.fields("", e.Methods)
	case *ast.FuncType:
		ix.fields("", e.Params)
		ix.fields("", e.Results)
	case *ast.ArrayType:
		ix.typeBody(e.Elt)
	case *ast.MapType:
		ix.typeBody(e.Value)
	case *ast.StarExpr:
		ix.typeBody(e.X)
	}
}

func (ix *docIndex) typeSpec(scope string, s *ast.TypeSpec) {
	ix.member(scope, s.Name.Name)
	ix.typed(s.Name.Name, s.Name)
	switch body := s.Type.(type) {
	case *ast.StructType:
		ix.fields(s.Name.Name, body.Fields)
	case *ast.InterfaceType:
		ix.fields(s.Name.Name, body.Methods)
	default:
		ix.typeBody(s.Type)
	}
}

func (ix *docIndex) valueSpec(scope string, s *ast.ValueSpec) {
	for i, n := range s.Names {
		if scope != "" {
			ix.member(scope, n.Name)
		}
		ix.names[n.Name] = true
		if s.Type != nil {
			ix.typed(n.Name, s.Type)
		} else if i < len(s.Values) {
			ix.typedValue(n.Name, s.Values[i])
		}
	}
}

// typedValue records the type of a composite literal or &T{} value.
func (ix *docIndex) typedValue(name string, v ast.Expr) {
	if u, ok := v.(*ast.UnaryExpr); ok && u.Op == token.AND {
		v = u.X
	}
	if cl, ok := v.(*ast.CompositeLit); ok && cl.Type != nil {
		ix.typed(name, cl.Type)
	}
}

func (ix *docIndex) addFile(pkg string, file *ast.File) {
	scope := "pkg:" + pkg
	for _, d := range file.Decls {
		switch d := d.(type) {
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					ix.typeSpec(scope, s)
				case *ast.ValueSpec:
					ix.valueSpec(scope, s)
				}
			}
		case *ast.FuncDecl:
			owner := scope
			if d.Recv != nil && len(d.Recv.List) > 0 {
				owner = typeName(d.Recv.List[0].Type)
				ix.fields("", d.Recv)
			}
			ix.member(owner, d.Name.Name)
			if r := d.Type.Results; r != nil && len(r.List) > 0 {
				ix.typed(d.Name.Name, r.List[0].Type)
			}
			ix.fields("", d.Type.Params)
			ix.fields("", d.Type.Results)
			if d.Body != nil {
				ix.body(d.Body)
			}
		}
	}
}

// body indexes the identifiers a function body declares.
func (ix *docIndex) body(b *ast.BlockStmt) {
	ast.Inspect(b, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				for i, l := range n.Lhs {
					if id, ok := l.(*ast.Ident); ok {
						ix.names[id.Name] = true
						if len(n.Rhs) == len(n.Lhs) {
							ix.typedValue(id.Name, n.Rhs[i])
						}
					}
				}
			}
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{n.Key, n.Value} {
				if id, ok := e.(*ast.Ident); ok {
					ix.names[id.Name] = true
				}
			}
		case *ast.TypeSpec:
			ix.typeSpec("", n)
		case *ast.ValueSpec:
			ix.valueSpec("", n)
		case *ast.FuncLit:
			ix.fields("", n.Type.Params)
			ix.fields("", n.Type.Results)
		}
		return true
	})
}

// addFlags records the flag.X("name", …) definitions of a command.
func (ix *docIndex) addFlags(cmd string, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "flag" || sel.Sel.Name == "Lookup" {
			return true
		}
		for i, a := range call.Args {
			if lit, ok := a.(*ast.BasicLit); ok && lit.Kind == token.STRING && i < 2 {
				name, _ := strconv.Unquote(lit.Value)
				if ix.flags[cmd] == nil {
					ix.flags[cmd] = map[string]bool{}
				}
				ix.flags[cmd][name] = true
				ix.allFlags[name] = true
				break
			}
		}
		return true
	})
}

// indexImport indexes a standard-library package from its source, the
// first time a span names it.
func (ix *docIndex) indexImport(name string) bool {
	p, ok := ix.imports[name]
	if !ok {
		return false
	}
	if ix.indexed[p] {
		return true
	}
	ix.indexed[p] = true
	bp, err := build.Default.Import(p, ".", build.FindOnly)
	if err != nil {
		return false
	}
	pkgs, err := parser.ParseDir(ix.fset, bp.Dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		return false
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ix.addFile(name, f)
		}
	}
	return true
}

var (
	spanIdent = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*(?:(?:\([^()]*\)|\[[^\]]*\])?\.[A-Za-z_][A-Za-z0-9_]*)*(?:\([^()]*\)|\[[^\]]*\])?$`)
	spanGroup = regexp.MustCompile(`\([^()]*\)|\[[^\]]*\]`)
	spanPath  = regexp.MustCompile(`^[A-Za-z0-9_.*-]+(?:/[A-Za-z0-9_.*-]*)*$`)
	spanFlag  = regexp.MustCompile(`^-[a-z][a-z0-9-]*(?:=.*)?$`)
	spanEnv   = regexp.MustCompile(`^[A-Z_][A-Z0-9_]*=\S*$`)
	fileExt   = regexp.MustCompile(`\.(go|md|sh|json|txt|yml|yaml|allow|mod)$`)
)

// check returns why a span fails to resolve, or "" when it resolves or
// is not a code reference.
func (ix *docIndex) check(s string, shell bool) string {
	toks := strings.Fields(s)
	for len(toks) > 0 && spanEnv.MatchString(toks[0]) {
		toks = toks[1:]
	}
	if len(toks) == 0 {
		return ""
	}
	switch {
	case shell || toks[0] == "go" || toks[0] == "make" || toks[0] == "bash" || ix.flags[toks[0]] != nil && len(toks) > 1:
		return ix.checkCommand(toks)
	case spanFlag.MatchString(toks[0]):
		if name := flagName(toks[0]); !ix.allFlags[name] {
			return "no command declares -" + name
		}
		return ""
	case len(toks) > 1:
		return ""
	}
	s = strings.TrimLeft(s, "*&")
	s = strings.TrimPrefix(s, "[]")
	if fileExt.MatchString(s) || strings.Contains(s, "/") && spanPath.MatchString(s) {
		return ix.checkPath(s)
	}
	if !spanIdent.MatchString(s) {
		return ""
	}
	name := spanGroup.ReplaceAllString(s, "")
	if strings.Contains(name, "_") && strings.ToLower(name) == name {
		return "" // a metric name such as simnet.tick_ms, not Go
	}
	parts := strings.Split(name, ".")
	if len(parts) == 1 {
		if strings.ToLower(name) == name || strings.ToUpper(name) == name || ix.names[name] {
			return ""
		}
		return "declared nowhere"
	}
	return ix.resolve(parts)
}

func flagName(tok string) string {
	return strings.SplitN(strings.TrimPrefix(tok, "-"), "=", 2)[0]
}

// checkPath resolves a repository path (globs allowed), a module path,
// a bare file name anywhere in the tree, or a standard-library package.
func (ix *docIndex) checkPath(s string) string {
	p := strings.TrimSuffix(strings.TrimPrefix(strings.TrimPrefix(s, "./"), "mmx/"), "...")
	p = strings.TrimSuffix(p, "/")
	first := strings.SplitN(p, "/", 2)[0]
	switch {
	case p == "":
		return "" // ./... is the whole module
	case !strings.Contains(p, "/"):
		if ix.bases[p] || strings.Contains(p, "*") {
			return ""
		}
		return "no such file in the tree"
	case ix.root[first] || strings.HasPrefix(s, "./"):
		if m, _ := filepath.Glob(p); len(m) > 0 {
			return ""
		}
		return "no such path"
	case fileExt.MatchString(p):
		return "no such path"
	}
	return "" // not a repository path (a standard-library path, a ratio)
}

// checkCommand checks a shell command: the paths it names, the make
// targets it builds and the flags it passes to a repository command.
func (ix *docIndex) checkCommand(toks []string) string {
	cmd := ""
	args := toks[1:]
	switch toks[0] {
	case "go":
		if len(toks) < 2 || toks[1] != "run" {
			break
		}
		dir := ""
		for i := 2; i < len(toks); i++ {
			if toks[i] == "-C" && i+1 < len(toks) {
				dir = toks[i+1]
				i++
				continue
			}
			if strings.HasPrefix(toks[i], "-") {
				continue
			}
			target := strings.TrimPrefix(path.Join(dir, toks[i]), "./")
			cmd, args = path.Base(target), toks[i+1:]
			break
		}
	case "make":
		for _, a := range args {
			if stop(a) {
				break
			}
			if !strings.HasPrefix(a, "-") && !strings.Contains(a, "=") && !ix.targets[a] {
				return "no make target " + a
			}
		}
		return ""
	default:
		if ix.flags[toks[0]] != nil {
			cmd = toks[0]
		}
	}
	for _, a := range toks[1:] {
		if stop(a) {
			break
		}
		if strings.HasPrefix(a, "./") || strings.HasSuffix(a, ".sh") {
			if why := ix.checkPath(a); why != "" {
				return a + ": " + why
			}
		}
	}
	if cmd == "" || ix.flags[cmd] == nil {
		return ""
	}
	for _, a := range args {
		if stop(a) {
			break
		}
		if spanFlag.MatchString(a) && !ix.flags[cmd][flagName(a)] {
			return cmd + " has no flag -" + flagName(a)
		}
	}
	return ""
}

func stop(tok string) bool {
	switch tok {
	case "|", "||", "&&", ";", "&", ">", "<", "2>":
		return true
	}
	return false
}

// resolve follows a dotted chain: the head is a package, a type, or an
// identifier whose type is known; each later part must be a member
// (field or method, embedded ones included) of what the previous part
// holds. A part whose type is unknown lets the next be any member name.
func (ix *docIndex) resolve(parts []string) string {
	head := parts[0]
	var scopes []string
	switch {
	case ix.pkgs[head]:
		scopes = []string{"pkg:" + head}
	case ix.indexImport(head):
		scopes = []string{"pkg:" + head}
	case ix.names[head]:
		scopes = sortedKeys(ix.typeOf[head])
	default:
		return head + " is declared nowhere"
	}
	for _, p := range parts[1:] {
		found := len(scopes) == 0 && ix.names[p]
		for _, sc := range scopes {
			if ix.hasMember(sc, p, 0) {
				found = true
				break
			}
		}
		if !found {
			return p + " is no member of " + strings.Join(scopes, "/")
		}
		scopes = sortedKeys(ix.typeOf[p])
	}
	return ""
}

func (ix *docIndex) hasMember(scope, name string, depth int) bool {
	if ix.members[scope][name] {
		return true
	}
	if depth < 4 {
		for _, e := range ix.embeds[scope] {
			if ix.hasMember(e, name, depth+1) {
				return true
			}
		}
	}
	return false
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
