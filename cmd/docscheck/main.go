// Command docscheck keeps the prose honest: it fails when the
// documentation references a command-line flag no command defines, an
// error variable no package declares, a knob no option struct has, a
// metric family no code exports, a path or program the repository does not
// have, or a ROADMAP item that is not open, when a Go code fence in the
// markdown is not gofmt-formatted, or when a metric family the code exports
// has no row in the metric reference.
//
//	go run ./cmd/docscheck
//
// Run from the repository root (CI runs it as the docs-check job). Eight
// checks:
//
//  1. Every `-flag` token in inline code or non-Go code fences of the
//     operator-facing documents (README.md, OPERATIONS.md,
//     REPLICATION.md, DURABILITY.md) must be a flag some command under
//     cmd/ actually defines — so renaming or removing a flag without
//     updating the docs breaks the build, not the user.
//  2. Every `ErrXxx` identifier those documents mention (ErrFenced,
//     core.ErrCorrupt, …) must be declared somewhere in the repository's
//     Go source — retiring or renaming a sentinel error without updating
//     the failure-handling docs breaks the build too.
//  3. Every ```go fence in any root-level markdown file must survive
//     gofmt unchanged (leading 4-space indents are treated as tabs, the
//     usual markdown rendering of Go indentation).
//  4. Every knob those documents attribute to Config, WALOptions or
//     FollowerOptions must be a field of that struct in the Go source —
//     so deleting or renaming a knob without updating the runbooks breaks
//     the build. Three forms are read as an attribution: a qualified
//     `Config.Field` anywhere in code; the first cell of a row in a table
//     whose header starts with "knob"; and, in a bullet list introduced by
//     a paragraph that says "knob" and names the structs, every bare
//     back-ticked CamelCase identifier (qualify anything that is not a
//     field: `Tree.Flush`, `dctree.WithWAL`).
//  5. Every dctree_… metric name in those documents or DESIGN.md must be a
//     family some non-test Go file declares (a histogram's _bucket, _sum
//     and _count series count as their family) — so a deleted family
//     cannot linger in a runbook. A name ending in "_", such as the
//     namespace dctree_repl_ or a pattern dctree_repl_*, must be the prefix
//     of at least one family.
//  6. Every repository path (cmd/…, internal/…, benchmark/…) those five
//     documents name must exist, and every program a code span or non-Go
//     fence runs, when it is spelled like one of ours (dc…), must be a
//     command under cmd/ — so a retired command or package cannot linger.
//  7. Every "ROADMAP item N" those five documents cite, the words possibly
//     split across lines, must name an open item of ROADMAP.md (a line
//     starting "- **N.") — so a citation cannot outlive its item.
//  8. Every family a non-test Go file declares must have exactly one row in
//     OPERATIONS.md's metric reference: a table whose header row starts
//     with "family", each row's first cell the back-ticked family name —
//     so a family cannot be added, or kept, without saying what it counts
//     and what an operator does about it.
package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// knobStructs are the option structs the documents describe, each with the
// file (relative to the repository root) that declares it. A
// package-qualified name is a struct another one embeds: the documents do
// not name it, its fields are checked as the promoted fields they are.
var knobStructs = []struct{ name, file string }{
	{"Config", "internal/core/config.go"},
	{"index.Config", "internal/index/config.go"},
	{"WALOptions", "internal/storage/wal.go"},
	{"FollowerOptions", "internal/repl/follower.go"},
}

// flagDocs are the documents whose flag references are validated.
var flagDocs = []string{"README.md", "OPERATIONS.md", "REPLICATION.md", "DURABILITY.md"}

// familyDocs are the documents whose metric-family references are validated.
var familyDocs = []string{"README.md", "OPERATIONS.md", "REPLICATION.md", "DURABILITY.md", "DESIGN.md"}

// referenceDoc is the document whose metric reference lists every family.
const referenceDoc = "OPERATIONS.md"

// allowedTools are non-repo flags the docs may legitimately mention
// (go test / go build flags in testing instructions).
var allowedTools = map[string]bool{
	"race": true, "bench": true, "benchmem": true, "count": true,
	"run": true, "short": true, "v": true, "cover": true, "tags": true,
}

var (
	// flagDef matches flag definitions: flag.String("name", …) and
	// fs.Bool("name", …) alike.
	flagDef = regexp.MustCompile(`\.(?:(?:String|Bool|Int|Int64|Uint|Uint64|Float64|Duration)\(|Var\([^,]+,\s*)"([^"]+)"`)
	// flagRef matches a flag token in documentation text: a dash followed
	// by a letter, up to a value or word boundary. "-checkpoint=false"
	// and "-n 100000" both yield their flag name.
	flagRef = regexp.MustCompile(`(?:^|[\s(|])-([a-z][a-z0-9-]*)`)
	// inlineCode matches `…` spans.
	inlineCode = regexp.MustCompile("`([^`]+)`")
	// errDef matches sentinel error declarations: `var ErrGap = …` and
	// `ErrGap = errors.New(…)` inside a var block alike.
	errDef = regexp.MustCompile(`(?m)^\s*(?:var\s+)?(Err[A-Z][A-Za-z0-9]*)\s*=`)
	// errRef matches an error identifier in documentation code, with or
	// without a package qualifier (core.ErrFenced, ErrGap).
	errRef = regexp.MustCompile(`\b(?:[a-z][a-z0-9]*\.)?(Err[A-Z][A-Za-z0-9]*)\b`)
	// fieldRef matches a qualified knob: Config.Field, optionally one level
	// deeper (Config.VersionRetention.KeepLast).
	fieldRef = regexp.MustCompile(`\b(Config|WALOptions|FollowerOptions)\.([A-Z][A-Za-z0-9]*)(?:\.([A-Z][A-Za-z0-9]*))?`)
	// bareIdent matches a code span that is one CamelCase identifier
	// (at least one lowercase letter, so LSN and ALL are not knobs).
	bareIdent = regexp.MustCompile(`^[A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*$`)
	// knobIntro matches the word that makes a paragraph a knob-list intro.
	knobIntro = regexp.MustCompile(`(?i)\bknobs?\b`)
	// familyDef matches a metric family name as a Go string literal.
	familyDef = regexp.MustCompile(`"(dctree_[a-z0-9_]+)"`)
	// familyRef matches a metric name in documentation text, with the
	// trailing * of a pattern.
	familyRef = regexp.MustCompile(`\bdctree_[a-z0-9_]*\*?`)
	// pathRef matches a repository path in documentation text.
	pathRef = regexp.MustCompile(`\b(?:cmd|internal|benchmark)/[A-Za-z0-9_.*/-]*[A-Za-z0-9_*]`)
	// programRef matches the program a code span or fence line runs: its
	// first word, when it is spelled like this repository's commands.
	programRef = regexp.MustCompile(`^\s*(?:\$\s+)?(dc[a-z]+)(?:\s|$)`)
	// roadmapRef matches a citation of a ROADMAP item, across a line break.
	roadmapRef = regexp.MustCompile(`\bROADMAP\s+item\s+(\d+)`)
	// roadmapItem matches the head of an open item in ROADMAP.md.
	roadmapItem = regexp.MustCompile(`(?m)^- \*\*(\d+)\.`)
)

func main() {
	defined, err := definedFlags("cmd")
	if err != nil {
		fatal(err)
	}
	errs, err := declaredErrors(".")
	if err != nil {
		fatal(err)
	}
	families, err := declaredFamilies(".")
	if err != nil {
		fatal(err)
	}
	fields, err := structFields(".")
	if err != nil {
		fatal(err)
	}
	var problems []string
	for _, doc := range flagDocs {
		p, err := checkFieldRefs(doc, fields)
		if err != nil {
			fatal(err)
		}
		problems = append(problems, p...)
		p, err = checkFlagRefs(doc, defined)
		if err != nil {
			fatal(err)
		}
		problems = append(problems, p...)
		p, err = checkErrRefs(doc, errs)
		if err != nil {
			fatal(err)
		}
		problems = append(problems, p...)
	}
	programs, err := commands("cmd", "go.mod")
	if err != nil {
		fatal(err)
	}
	items, err := openItems("ROADMAP.md")
	if err != nil {
		fatal(err)
	}
	for _, doc := range familyDocs {
		p, err := checkFamilyRefs(doc, families)
		if err != nil {
			fatal(err)
		}
		problems = append(problems, p...)
		p, err = checkRepoRefs(doc, ".", programs)
		if err != nil {
			fatal(err)
		}
		problems = append(problems, p...)
		p, err = checkRoadmapRefs(doc, items)
		if err != nil {
			fatal(err)
		}
		problems = append(problems, p...)
	}
	p, err := checkReference(referenceDoc, families)
	if err != nil {
		fatal(err)
	}
	problems = append(problems, p...)
	docs, err := filepath.Glob("*.md")
	if err != nil {
		fatal(err)
	}
	for _, doc := range docs {
		p, err := checkGoFences(doc)
		if err != nil {
			fatal(err)
		}
		problems = append(problems, p...)
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("docscheck: ok")
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
	os.Exit(1)
}

// definedFlags collects every flag name defined by any command under
// cmdDir, by scanning the source for flag-definition calls.
func definedFlags(cmdDir string) (map[string]bool, error) {
	defined := make(map[string]bool)
	err := filepath.WalkDir(cmdDir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range flagDef.FindAllStringSubmatch(string(src), -1) {
			defined[m[1]] = true
		}
		return nil
	})
	if len(defined) == 0 && err == nil {
		err = fmt.Errorf("no flag definitions found under %s — run from the repository root", cmdDir)
	}
	return defined, err
}

// declaredErrors collects every ErrXxx sentinel declared anywhere in the
// repository's Go source (tests included — docs may cite test-only
// sentinels is not a case we want, but over-collection only costs the
// check a little sharpness, never a false failure).
func declaredErrors(root string) (map[string]bool, error) {
	return scanGo(root, true, errDef, "error declarations")
}

// declaredFamilies collects every dctree_ metric family name a non-test Go
// file under root spells as a string literal.
func declaredFamilies(root string) (map[string]bool, error) {
	return scanGo(root, false, familyDef, "metric families")
}

// scanGo collects the first submatch of re over the Go files under root,
// skipping hidden and testdata directories, and _test.go files unless
// tests is set. Finding nothing is an error: the caller is not at the
// repository root.
func scanGo(root string, tests bool, re *regexp.Regexp, what string) (map[string]bool, error) {
	found := make(map[string]bool)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || !tests && strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range re.FindAllStringSubmatch(string(src), -1) {
			found[m[1]] = true
		}
		return nil
	})
	if len(found) == 0 && err == nil {
		err = fmt.Errorf("no %s found under %s — run from the repository root", what, root)
	}
	return found, err
}

// checkFamilyRefs reports every dctree_ metric name in doc that no declared
// family accounts for (check 5 of the package comment).
func checkFamilyRefs(doc string, families map[string]bool) ([]string, error) {
	data, err := os.ReadFile(doc)
	if err != nil {
		return nil, err
	}
	var problems []string
	for i, line := range strings.Split(string(data), "\n") {
		for _, ref := range familyRef.FindAllString(line, -1) {
			name := strings.TrimSuffix(ref, "*")
			if strings.HasSuffix(name, "_") {
				if !hasPrefixed(families, name) {
					problems = append(problems, fmt.Sprintf("%s:%d: no metric family starts with %s", doc, i+1, name))
				}
				continue
			}
			if !families[name] && !families[histogramFamily(name)] {
				problems = append(problems, fmt.Sprintf("%s:%d: metric family %s is not declared by any non-test Go file", doc, i+1, name))
			}
		}
	}
	return problems, nil
}

// checkReference reports every family in families that the metric reference
// in doc does not list, and every family it lists twice (check 8 of the
// package comment).
func checkReference(doc string, families map[string]bool) ([]string, error) {
	data, err := os.ReadFile(doc)
	if err != nil {
		return nil, err
	}
	var problems []string
	rows := make(map[string]int)
	inTable := false // in a table whose header row starts with "family"
	for i, line := range strings.Split(string(data), "\n") {
		trim := strings.TrimSpace(line)
		if !strings.HasPrefix(trim, "|") {
			inTable = false
			continue
		}
		first := strings.TrimSpace(strings.SplitN(strings.TrimPrefix(trim, "|"), "|", 2)[0])
		if strings.EqualFold(first, "family") {
			inTable = true
			continue
		}
		m := inlineCode.FindStringSubmatch(first)
		if !inTable || m == nil {
			continue
		}
		if rows[m[1]]++; rows[m[1]] == 2 {
			problems = append(problems, fmt.Sprintf("%s:%d: metric family %s has a second row in the metric reference", doc, i+1, m[1]))
		}
	}
	var missing []string
	for f := range families {
		if rows[f] == 0 {
			missing = append(missing, f)
		}
	}
	sort.Strings(missing)
	for _, f := range missing {
		problems = append(problems, fmt.Sprintf("%s: metric family %s has no row in the metric reference", doc, f))
	}
	return problems, nil
}

// histogramFamily strips a histogram series suffix (_bucket, _sum, _count)
// from a metric name.
func histogramFamily(name string) string {
	for _, series := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, series); ok {
			return base
		}
	}
	return name
}

// hasPrefixed reports whether some family name starts with prefix.
func hasPrefixed(families map[string]bool, prefix string) bool {
	for f := range families {
		if strings.HasPrefix(f, prefix) {
			return true
		}
	}
	return false
}

// commands returns the names of the commands under cmdDir, plus the last
// element of the module path in modFile: the root package's name, which
// the documents spell like a program but which is not one.
func commands(cmdDir, modFile string) (map[string]bool, error) {
	entries, err := os.ReadDir(cmdDir)
	if err != nil {
		return nil, err
	}
	names := make(map[string]bool)
	for _, e := range entries {
		if e.IsDir() {
			names[e.Name()] = true
		}
	}
	mod, err := os.ReadFile(modFile)
	if err != nil {
		return nil, err
	}
	m := regexp.MustCompile(`(?m)^module\s+(\S+)`).FindSubmatch(mod)
	if m == nil {
		return nil, fmt.Errorf("%s has no module line", modFile)
	}
	names[path.Base(string(m[1]))] = true
	return names, nil
}

// checkRepoRefs reports every repository path doc names that does not
// exist under root, and every program its code runs that is not one of
// programs (check 6 of the package comment).
func checkRepoRefs(doc, root string, programs map[string]bool) ([]string, error) {
	data, err := os.ReadFile(doc)
	if err != nil {
		return nil, err
	}
	var problems []string
	code := nonGoCode(data)
	for i, line := range strings.Split(string(data), "\n") {
		for _, ref := range pathRef.FindAllString(line, -1) {
			if m, _ := filepath.Glob(filepath.Join(root, ref)); len(m) == 0 {
				problems = append(problems, fmt.Sprintf("%s:%d: path %s does not exist", doc, i+1, ref))
			}
		}
		for _, c := range code[i] {
			if m := programRef.FindStringSubmatch(c); m != nil && !programs[m[1]] {
				problems = append(problems, fmt.Sprintf("%s:%d: program %s is not a command under cmd/", doc, i+1, m[1]))
			}
		}
	}
	return problems, nil
}

// openItems returns the numbers of the open items in roadmap.
func openItems(roadmap string) (map[string]bool, error) {
	data, err := os.ReadFile(roadmap)
	if err != nil {
		return nil, err
	}
	items := make(map[string]bool)
	for _, m := range roadmapItem.FindAllSubmatch(data, -1) {
		items[string(m[1])] = true
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("no open items found in %s — run from the repository root", roadmap)
	}
	return items, nil
}

// checkRoadmapRefs reports every ROADMAP item doc cites that is not one of
// items (check 7 of the package comment).
func checkRoadmapRefs(doc string, items map[string]bool) ([]string, error) {
	data, err := os.ReadFile(doc)
	if err != nil {
		return nil, err
	}
	var problems []string
	for _, m := range roadmapRef.FindAllSubmatchIndex(data, -1) {
		if n := string(data[m[2]:m[3]]); !items[n] {
			line := 1 + bytes.Count(data[:m[0]], []byte("\n"))
			problems = append(problems, fmt.Sprintf("%s:%d: ROADMAP item %s is not an open item", doc, line, n))
		}
	}
	return problems, nil
}

// checkErrRefs scans doc's inline code spans and code fences for ErrXxx
// identifiers and reports any the Go source does not declare.
func checkErrRefs(doc string, declared map[string]bool) ([]string, error) {
	data, err := os.ReadFile(doc)
	if err != nil {
		return nil, err
	}
	var problems []string
	inFence := false
	for i, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		var code []string
		if inFence {
			code = append(code, line)
		} else {
			for _, m := range inlineCode.FindAllStringSubmatch(line, -1) {
				code = append(code, m[1])
			}
		}
		for _, c := range code {
			for _, m := range errRef.FindAllStringSubmatch(c, -1) {
				if name := m[1]; !declared[name] {
					problems = append(problems,
						fmt.Sprintf("%s:%d: error %s is not declared anywhere in the Go source", doc, i+1, name))
				}
			}
		}
	}
	return problems, nil
}

// nonGoCode returns, per line of data, the code on it outside Go fences:
// the whole line inside any other fence, the inline code spans outside
// fences, nothing on a fence's own marker line.
func nonGoCode(data []byte) [][]string {
	lines := strings.Split(string(data), "\n")
	code := make([][]string, len(lines))
	inFence, goFence := false, false
	for i, line := range lines {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			if !inFence {
				lang := strings.TrimPrefix(strings.TrimSpace(line), "```")
				goFence = lang == "go"
			}
			inFence = !inFence
			continue
		}
		switch {
		case inFence && !goFence:
			code[i] = []string{line}
		case !inFence:
			for _, m := range inlineCode.FindAllStringSubmatch(line, -1) {
				code[i] = append(code[i], m[1])
			}
		}
	}
	return code
}

// checkFlagRefs scans doc's inline code spans and non-Go code fences for
// flag tokens and reports any that no command defines.
func checkFlagRefs(doc string, defined map[string]bool) ([]string, error) {
	data, err := os.ReadFile(doc)
	if err != nil {
		return nil, err
	}
	var problems []string
	for i, code := range nonGoCode(data) {
		for _, c := range code {
			for _, m := range flagRef.FindAllStringSubmatch(c, -1) {
				name := m[1]
				if !defined[name] && !allowedTools[name] {
					problems = append(problems,
						fmt.Sprintf("%s:%d: flag -%s is not defined by any command under cmd/", doc, i+1, name))
				}
			}
		}
	}
	return problems, nil
}

// fieldSet holds, per struct type name, its field names mapped to the name
// of the field's type (empty unless the type is a plain identifier) — enough
// to follow Config.VersionRetention.KeepLast one level down.
type fieldSet map[string]map[string]string

// structFields parses the files of knobStructs under root and collects the
// fields of every struct type they declare, the types of a file listed
// under a qualified name keyed with that qualifier. A struct that embeds
// another collected struct gets its fields too (one level, not shadowing
// its own).
func structFields(root string) (fieldSet, error) {
	fields := make(fieldSet)
	embeds := make(map[string][]string) // struct → the struct types it embeds
	for _, ks := range knobStructs {
		f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(root, ks.file), nil, 0)
		if err != nil {
			return nil, err
		}
		pkg := ks.name[:strings.LastIndexByte(ks.name, '.')+1] // "index." or ""
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			name, set := pkg+ts.Name.Name, make(map[string]string)
			for _, fld := range st.Fields.List {
				typ := ""
				switch t := fld.Type.(type) {
				case *ast.Ident:
					typ = t.Name
				case *ast.SelectorExpr:
					if x, ok := t.X.(*ast.Ident); ok && len(fld.Names) == 0 {
						typ = x.Name + "." + t.Sel.Name
					}
				}
				if len(fld.Names) == 0 && typ != "" {
					embeds[name] = append(embeds[name], typ)
				}
				for _, id := range fld.Names {
					set[id.Name] = typ
				}
			}
			fields[name] = set
			return true
		})
		if fields[ks.name] == nil {
			return nil, fmt.Errorf("struct %s not found in %s — run from the repository root", ks.name, ks.file)
		}
	}
	for name, embedded := range embeds {
		for _, e := range embedded {
			for fld, typ := range fields[e] {
				if _, own := fields[name][fld]; !own {
					fields[name][fld] = typ
				}
			}
		}
	}
	return fields, nil
}

// checkFieldRefs reports every knob doc attributes to one of knobStructs
// that is not a field of it (check 4 of the package comment).
func checkFieldRefs(doc string, fields fieldSet) ([]string, error) {
	data, err := os.ReadFile(doc)
	if err != nil {
		return nil, err
	}
	var problems []string
	// check reports name unless it is a field of one of structs.
	check := func(line int, structs []string, name string) {
		for _, s := range structs {
			if _, ok := fields[s][name]; ok {
				return
			}
		}
		problems = append(problems, fmt.Sprintf("%s:%d: %s is not a field of %s",
			doc, line, name, strings.Join(structs, " or ")))
	}
	var all []string // every knob struct: what an unqualified table cell may name
	for _, ks := range knobStructs {
		if !strings.Contains(ks.name, ".") {
			all = append(all, ks.name)
		}
	}
	const (
		tableNone  = iota // not in a table
		tableKnob         // in a table whose header row starts with "knob"
		tableOther        // in any other table
	)
	var (
		inFence  bool
		table    = tableNone
		para     string   // the prose paragraph being read, or the last one read
		paraOpen bool     // para is still being read
		list     []string // structs the knob bullet list being read is about
	)
	for i, line := range strings.Split(string(data), "\n") {
		trim := strings.TrimSpace(line)
		if strings.HasPrefix(trim, "```") {
			inFence = !inFence
			continue
		}
		spans := []string{line} // code on this line: all of it in a fence
		if !inFence {
			spans = spans[:0]
			for _, m := range inlineCode.FindAllStringSubmatch(line, -1) {
				spans = append(spans, m[1])
			}
		}
		// Form 1: qualified references.
		for _, c := range spans {
			for _, m := range fieldRef.FindAllStringSubmatch(c, -1) {
				check(i+1, []string{m[1]}, m[2])
				if typ := fields[m[1]][m[2]]; m[3] != "" && fields[typ] != nil {
					check(i+1, []string{typ}, m[3])
				}
			}
		}
		if inFence {
			continue
		}
		isRow := strings.HasPrefix(trim, "|")
		if !isRow {
			table = tableNone
		}
		switch {
		case trim == "":
			paraOpen = false
		case isRow:
			// Form 2: the first cell of a knob table's body rows.
			list = nil
			first := strings.TrimSpace(strings.SplitN(strings.TrimPrefix(trim, "|"), "|", 2)[0])
			switch table {
			case tableNone:
				table = tableOther
				if strings.EqualFold(first, "knob") {
					table = tableKnob
				}
			case tableKnob:
				if m := inlineCode.FindStringSubmatch(first); m != nil && bareIdent.MatchString(m[1]) {
					check(i+1, all, m[1])
				}
			}
		case strings.HasPrefix(trim, "* "), strings.HasPrefix(trim, "- "), list != nil && line != trim:
			// Form 3: a bullet (or its continuation line) of a list whose
			// intro paragraph says "knob" and names the structs.
			if list == nil && knobIntro.MatchString(para) {
				for _, s := range all {
					if strings.Contains(para, "`"+s+"`") {
						list = append(list, s)
					}
				}
			}
			for _, c := range spans {
				if list != nil && bareIdent.MatchString(c) && !errRef.MatchString(c) {
					check(i+1, list, c)
				}
			}
		default: // prose
			list = nil
			if !paraOpen {
				para, paraOpen = "", true
			}
			para += " " + line
		}
	}
	return problems, nil
}

// checkGoFences gofmt-checks every ```go fence in doc. Snippets without a
// package clause are treated as statements (wrapped in a function);
// leading 4-space indents count as tabs.
func checkGoFences(doc string) ([]string, error) {
	data, err := os.ReadFile(doc)
	if err != nil {
		return nil, err
	}
	var problems []string
	lines := strings.Split(string(data), "\n")
	for i := 0; i < len(lines); i++ {
		if strings.TrimSpace(lines[i]) != "```go" {
			continue
		}
		start := i + 1
		j := start
		for j < len(lines) && strings.TrimSpace(lines[j]) != "```" {
			j++
		}
		snippet := strings.Join(lines[start:j], "\n")
		if err := gofmtClean(snippet); err != nil {
			problems = append(problems, fmt.Sprintf("%s:%d: go fence: %v", doc, start, err))
		}
		i = j
	}
	return problems, nil
}

// gofmtClean reports whether the snippet is gofmt-formatted (after
// normalizing 4-space indentation to tabs).
func gofmtClean(snippet string) error {
	norm := normalizeIndent(snippet)
	src := norm
	wrapped := !strings.Contains(norm, "package ")
	if wrapped {
		var b strings.Builder
		b.WriteString("package p\n\nfunc _() {\n")
		for _, line := range strings.Split(norm, "\n") {
			if line != "" {
				b.WriteByte('\t')
			}
			b.WriteString(line)
			b.WriteByte('\n')
		}
		b.WriteString("}\n")
		src = b.String()
	}
	formatted, err := format.Source([]byte(src))
	if err != nil {
		return fmt.Errorf("does not parse: %v", err)
	}
	if string(formatted) != src {
		return fmt.Errorf("not gofmt-formatted")
	}
	return nil
}

// normalizeIndent rewrites leading 4-space groups as tabs, line by line.
func normalizeIndent(s string) string {
	lines := strings.Split(s, "\n")
	for i, line := range lines {
		var tabs int
		for strings.HasPrefix(line, "    ") {
			line = line[4:]
			tabs++
		}
		lines[i] = strings.Repeat("\t", tabs) + line
	}
	return strings.Join(lines, "\n")
}
