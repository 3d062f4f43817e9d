// Command docscheck keeps the prose honest: it fails when the
// documentation references a command-line flag no command defines, an
// error variable no package declares, or when a Go code fence in the
// markdown is not gofmt-formatted.
//
//	go run ./cmd/docscheck
//
// Run from the repository root (CI runs it as the docs-check job). Four
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
package main

import (
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
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
	declared := make(map[string]bool)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range errDef.FindAllStringSubmatch(string(src), -1) {
			declared[m[1]] = true
		}
		return nil
	})
	if len(declared) == 0 && err == nil {
		err = fmt.Errorf("no error declarations found under %s — run from the repository root", root)
	}
	return declared, err
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

// checkFlagRefs scans doc's inline code spans and non-Go code fences for
// flag tokens and reports any that no command defines.
func checkFlagRefs(doc string, defined map[string]bool) ([]string, error) {
	data, err := os.ReadFile(doc)
	if err != nil {
		return nil, err
	}
	var problems []string
	inFence, goFence := false, false
	for i, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			if !inFence {
				lang := strings.TrimPrefix(strings.TrimSpace(line), "```")
				goFence = lang == "go"
			}
			inFence = !inFence
			continue
		}
		var code []string
		switch {
		case inFence && !goFence:
			code = append(code, line)
		case !inFence:
			for _, m := range inlineCode.FindAllStringSubmatch(line, -1) {
				code = append(code, m[1])
			}
		}
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
