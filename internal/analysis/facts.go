// Facts: cross-function, cross-package knowledge for the analyzers.
//
// The per-function-body checks of PR 3 stop at every call: a
// //blinkradar:hotpath function calling an un-annotated helper that
// allocates passed silently. ComputeFacts closes that hole. It builds
// an intra-module call graph over the typed ASTs of every loaded
// package, extracts per-function local facts — allocates, blocks,
// spawns — from each body, and propagates them over the graph to a
// fixpoint, so a fact anywhere on a call chain is visible at every
// caller. Analyzers reach the result through Pass.Facts.
//
// Identity is by types.Func.FullName(), which is stable between a
// package type-checked from source and the same package imported from
// export data, so edges resolve across package boundaries within the
// module. Dynamic calls (func values, interface methods) cannot be
// resolved statically and contribute no edges; a short table assigns
// facts to the standard-library calls that matter (fmt/errors/log
// allocate, time.Sleep and WaitGroup/Cond waits block).
//
// ComputeFacts also collects the repo's source annotations in one
// place, because several analyzers need annotations from *other*
// packages (whose comments are not in the export data):
//
//	//blinkradar:hotpath            function: allocation-checked hot path
//	//blinkradar:coldpath           function: reviewed cold branch; the
//	                                transitive hot-path check does not
//	                                descend into it
//	//blinkradar:entry <domain>     function: entry point of a
//	                                confinement domain (shardconfine)
//	//blinkradar:confined <domain>  struct field: only reachable code of
//	                                the domain may touch it
//	//blinkradar:unit <name>        type: slow-time unit type (timeunit)
//	//blinkradar:convert            function: sanctioned unit conversion
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// FactSet is a bitset of function facts.
type FactSet uint8

const (
	// FactAllocates: the function (or something it calls) performs a
	// heap allocation — append, make/new, map/slice literals, string
	// concatenation, interface boxing, capturing closures, go
	// statements, or a call into an allocating stdlib package.
	FactAllocates FactSet = 1 << iota
	// FactBlocks: the function may block — channel send/receive outside
	// a select with a default case, a select without default, or a call
	// into a known-blocking stdlib function.
	FactBlocks
	// FactSpawns: the function starts a goroutine.
	FactSpawns
)

// factNames orders the bits for String and ParseFact.
var factNames = []struct {
	bit  FactSet
	name string
}{
	{FactAllocates, "allocates"},
	{FactBlocks, "blocks"},
	{FactSpawns, "spawns"},
}

// Has reports whether every bit of q is set.
func (fs FactSet) Has(q FactSet) bool { return fs&q == q }

// String renders the set as "allocates|blocks|spawns" ("-" when empty).
func (fs FactSet) String() string {
	var parts []string
	for _, fn := range factNames {
		if fs&fn.bit != 0 {
			parts = append(parts, fn.name)
		}
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, "|")
}

// ParseFact resolves a fact name ("allocates", "blocks", "spawns").
func ParseFact(name string) (FactSet, bool) {
	for _, fn := range factNames {
		if fn.name == name {
			return fn.bit, true
		}
	}
	return 0, false
}

// Source-annotation markers shared by the analyzers.
const (
	MarkerHotPath  = "//blinkradar:hotpath"
	MarkerColdPath = "//blinkradar:coldpath"
	MarkerEntry    = "//blinkradar:entry"
	MarkerConfined = "//blinkradar:confined"
	MarkerUnit     = "//blinkradar:unit"
	MarkerConvert  = "//blinkradar:convert"
)

// FuncID is the stable cross-package identity of a function:
// types.Func.FullName(), e.g. "blinkradar/internal/core.tail" or
// "(*blinkradar/internal/session.Session).push".
func FuncID(fn *types.Func) string { return fn.FullName() }

// ShortFuncID compresses a FuncID for diagnostics by dropping the
// directory components of the package path:
// "(*blinkradar/internal/session.Session).push" → "(*session.Session).push".
func ShortFuncID(id string) string {
	open := ""
	s := id
	for len(s) > 0 && (s[0] == '(' || s[0] == '*') {
		open += s[:1]
		s = s[1:]
	}
	if i := strings.LastIndexByte(s, '/'); i >= 0 {
		s = s[i+1:]
	}
	return open + s
}

// Facts is the suite-wide result of ComputeFacts.
type Facts struct {
	local   map[string]FactSet // facts from the function's own body
	set     map[string]FactSet // local ∪ facts of everything reachable
	defined map[string]bool    // has a source body in the analyzed set
	hot     map[string]bool    // //blinkradar:hotpath
	cold    map[string]bool    // //blinkradar:coldpath
	convert map[string]bool    // //blinkradar:convert

	edges   map[string][]string // caller → callees (static calls only)
	via     map[string]map[FactSet]string
	entries map[string][]string // confinement domain → entry FuncIDs
	reach   map[string]map[string]bool

	confined map[string]string // "pkgpath.Type.field" → domain
	units    map[string]string // "pkgpath.Type" → unit name
}

// Of returns the propagated fact set of fn.
func (f *Facts) Of(fn *types.Func) FactSet { return f.Set(FuncID(fn)) }

// Set returns the propagated fact set of a FuncID.
func (f *Facts) Set(id string) FactSet { return f.set[id] }

// Hot and Cold report the function's hot-path / cold-path annotation.
func (f *Facts) Hot(id string) bool  { return f.hot[id] }
func (f *Facts) Cold(id string) bool { return f.cold[id] }

// Convert reports the //blinkradar:convert annotation (timeunit).
func (f *Facts) Convert(id string) bool { return f.convert[id] }

// ConfinedDomain returns the confinement domain of a struct field,
// keyed as "pkgpath.Type.field" (see FieldKey).
func (f *Facts) ConfinedDomain(key string) (string, bool) {
	d, ok := f.confined[key]
	return d, ok
}

// Entries returns the //blinkradar:entry FuncIDs of a domain.
func (f *Facts) Entries(domain string) []string { return f.entries[domain] }

// UnitName resolves a type to its //blinkradar:unit name. Aliases and
// pointers are looked through; only defined (named) types match.
func (f *Facts) UnitName(t types.Type) (string, bool) {
	if t == nil {
		return "", false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	name, ok := f.units[typeKey(n.Obj())]
	return name, ok
}

// Reachable returns the set of FuncIDs reachable from the domain's
// entry points over the call graph (entries included). The closure is
// computed once per domain and cached.
func (f *Facts) Reachable(domain string) map[string]bool {
	if r, ok := f.reach[domain]; ok {
		return r
	}
	r := make(map[string]bool)
	work := append([]string(nil), f.entries[domain]...)
	for _, id := range work {
		r[id] = true
	}
	for len(work) > 0 {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		for _, callee := range f.edges[id] {
			if !r[callee] {
				r[callee] = true
				work = append(work, callee)
			}
		}
	}
	if f.reach == nil {
		f.reach = make(map[string]map[string]bool)
	}
	f.reach[domain] = r
	return r
}

// Chain reconstructs a call chain from id to the origin of fact bit —
// the function whose own body (or stdlib table entry) introduced it.
// The returned names are ShortFuncIDs starting with id itself; nil when
// the function does not carry the fact.
func (f *Facts) Chain(id string, bit FactSet) []string {
	if f.set[id]&bit == 0 {
		return nil
	}
	out := []string{ShortFuncID(id)}
	cur := id
	for i := 0; i < 64; i++ { // bound against via-map cycles
		if f.local[cur]&bit != 0 || !f.defined[cur] {
			return out
		}
		next, ok := f.via[cur][bit]
		if !ok {
			return out
		}
		out = append(out, ShortFuncID(next))
		cur = next
	}
	return out
}

// FieldKey builds the confined-field identity for a field of a named
// struct type: "pkgpath.Type.field".
func FieldKey(obj *types.TypeName, field string) string {
	return typeKey(obj) + "." + field
}

func typeKey(obj *types.TypeName) string {
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// ComputeFacts builds the call graph and fact sets over every package
// in pkgs. Facts are only as complete as the package set: run over the
// whole module (./...) for cross-package precision; a partial load
// simply leaves callees outside it undefined (no facts).
func ComputeFacts(pkgs []*Package) *Facts {
	f := &Facts{
		local:    make(map[string]FactSet),
		set:      make(map[string]FactSet),
		defined:  make(map[string]bool),
		hot:      make(map[string]bool),
		cold:     make(map[string]bool),
		convert:  make(map[string]bool),
		edges:    make(map[string][]string),
		via:      make(map[string]map[FactSet]string),
		entries:  make(map[string][]string),
		confined: make(map[string]string),
		units:    make(map[string]string),
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			f.collectFile(pkg, file)
		}
	}
	f.propagate()
	return f
}

// markerArg returns the first argument of a marker comment line, or ""
// plus whether the marker is present at all.
func markerArg(cg *ast.CommentGroup, marker string) (string, bool) {
	if cg == nil {
		return "", false
	}
	for _, c := range cg.List {
		rest, ok := strings.CutPrefix(strings.TrimSpace(c.Text), marker)
		if !ok {
			continue
		}
		if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
			continue // longer marker, e.g. ":hotpathx"
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return "", true
		}
		return fields[0], true
	}
	return "", false
}

func (f *Facts) collectFile(pkg *Package, file *ast.File) {
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			f.collectFunc(pkg, d)
		case *ast.GenDecl:
			if d.Tok == token.TYPE {
				f.collectTypes(pkg, d)
			}
		}
	}
}

func (f *Facts) collectTypes(pkg *Package, d *ast.GenDecl) {
	for _, spec := range d.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		obj, ok := pkg.Info.Defs[ts.Name].(*types.TypeName)
		if !ok {
			continue
		}
		for _, cg := range []*ast.CommentGroup{d.Doc, ts.Doc, ts.Comment} {
			if name, ok := markerArg(cg, MarkerUnit); ok {
				if name == "" {
					name = ts.Name.Name
				}
				f.units[typeKey(obj)] = name
			}
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			continue
		}
		for _, field := range st.Fields.List {
			domain := ""
			found := false
			for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
				if d, ok := markerArg(cg, MarkerConfined); ok && d != "" {
					domain, found = d, true
				}
			}
			if !found {
				continue
			}
			for _, name := range field.Names {
				f.confined[FieldKey(obj, name.Name)] = domain
			}
		}
	}
}

func (f *Facts) collectFunc(pkg *Package, decl *ast.FuncDecl) {
	fn, ok := pkg.Info.Defs[decl.Name].(*types.Func)
	if !ok {
		return
	}
	id := FuncID(fn)
	f.defined[id] = true
	if _, ok := markerArg(decl.Doc, MarkerHotPath); ok {
		f.hot[id] = true
	}
	if _, ok := markerArg(decl.Doc, MarkerColdPath); ok {
		f.cold[id] = true
	}
	if _, ok := markerArg(decl.Doc, MarkerConvert); ok {
		f.convert[id] = true
	}
	if domain, ok := markerArg(decl.Doc, MarkerEntry); ok && domain != "" {
		f.entries[domain] = append(f.entries[domain], id)
	}
	if decl.Body == nil {
		return
	}
	f.local[id] |= f.scanBody(pkg.Info, id, decl.Body)
}

// nonBlockingComms marks the communication statements of selects that
// carry a default case: those channel operations never block.
func nonBlockingComms(body ast.Node) map[ast.Node]bool {
	exempt := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		for _, clause := range sel.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			return true
		}
		for _, clause := range sel.Body.List {
			cc, ok := clause.(*ast.CommClause)
			if !ok || cc.Comm == nil {
				continue
			}
			exempt[cc.Comm] = true
			// The receive expression inside an assignment or
			// expression-statement comm.
			switch s := cc.Comm.(type) {
			case *ast.AssignStmt:
				for _, rhs := range s.Rhs {
					exempt[ast.Unparen(rhs)] = true
				}
			case *ast.ExprStmt:
				exempt[ast.Unparen(s.X)] = true
			}
		}
		return true
	})
	return exempt
}

// scanBody extracts local facts and call edges from one function body.
// Function-literal bodies are folded into the enclosing declaration:
// for defer/argument closures that is exact, for stored/returned
// closures it over-approximates, which is the safe direction for a
// linter.
func (f *Facts) scanBody(info *types.Info, caller string, body ast.Node) FactSet {
	var facts FactSet
	exempt := nonBlockingComms(body)
	seen := make(map[string]bool)
	addEdge := func(callee string) {
		if callee == caller || seen[callee] {
			return
		}
		seen[callee] = true
		f.edges[caller] = append(f.edges[caller], callee)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok {
					switch b.Name() {
					case "append", "make", "new":
						facts |= FactAllocates
					}
					return true
				}
			}
			if tv, ok := info.Types[n.Fun]; ok && tv.IsType() {
				// Conversion: boxing into an interface allocates.
				if types.IsInterface(tv.Type) && len(n.Args) == 1 {
					if at := info.TypeOf(n.Args[0]); at != nil && !types.IsInterface(at) {
						facts |= FactAllocates
					}
				}
				return true
			}
			if callee := Callee(info, n); callee != nil {
				id := FuncID(callee)
				if ext := stdlibFacts(callee); ext != 0 {
					// Seed the table entry as an undefined leaf node so
					// propagation and chain printing see it.
					f.set[id] |= ext
					f.local[id] |= ext
				}
				addEdge(id)
			}
			if boxesVariadic(info, n) {
				facts |= FactAllocates
			}
		case *ast.CompositeLit:
			if t := info.TypeOf(n); t != nil {
				switch t.Underlying().(type) {
				case *types.Map, *types.Slice:
					facts |= FactAllocates
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if t := info.TypeOf(n); t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						facts |= FactAllocates
					}
				}
			}
		case *ast.FuncLit:
			if CapturedVar(info, n) != "" {
				facts |= FactAllocates
			}
		case *ast.GoStmt:
			facts |= FactSpawns | FactAllocates
		case *ast.SendStmt:
			if !exempt[ast.Node(n)] {
				facts |= FactBlocks
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !exempt[ast.Node(n)] {
				facts |= FactBlocks
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					facts |= FactBlocks
				}
			}
		case *ast.SelectStmt:
			hasDefault := false
			for _, clause := range n.Body.List {
				if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				facts |= FactBlocks
			}
		}
		return true
	})
	return facts
}

// Callee resolves a call expression to the static *types.Func it
// invokes: a package-level function, a method (by static receiver
// type), or a builtin-free identifier. Dynamic calls — func values,
// interface methods bound at runtime — return the interface method or
// nil; interface methods are never Defined, so they contribute no
// facts.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn // qualified pkg.Func
		}
	}
	return nil
}

// boxesVariadic reports whether the call implicitly boxes arguments
// into a ...interface{} parameter.
func boxesVariadic(info *types.Info, call *ast.CallExpr) bool {
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok || !sig.Variadic() || call.Ellipsis != token.NoPos {
		return false
	}
	last := sig.Params().At(sig.Params().Len() - 1)
	slice, ok := last.Type().(*types.Slice)
	return ok && types.IsInterface(slice.Elem()) && len(call.Args) >= sig.Params().Len()
}

// CapturedVar returns the name of a variable the closure captures from
// an enclosing function scope, or "" when the closure is capture-free
// (package-level and universe names are not captures).
func CapturedVar(info *types.Info, lit *ast.FuncLit) string {
	var captured string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if p := v.Parent(); p == nil || p == types.Universe || p.Parent() == types.Universe {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captured = v.Name()
			return false
		}
		return true
	})
	return captured
}

// stdlibFacts assigns facts to standard-library functions whose bodies
// are not analyzed. The table is deliberately small: entries the hot
// path plausibly meets, not a model of the whole library.
func stdlibFacts(fn *types.Func) FactSet {
	pkg := fn.Pkg()
	if pkg == nil {
		return 0
	}
	switch pkg.Path() {
	case "fmt", "errors", "log":
		return FactAllocates
	case "time":
		if fn.Name() == "Sleep" {
			return FactBlocks
		}
		if fn.Name() == "After" || fn.Name() == "NewTimer" || fn.Name() == "NewTicker" {
			return FactAllocates
		}
	case "sync":
		switch FuncID(fn) {
		case "(*sync.WaitGroup).Wait", "(*sync.Cond).Wait":
			return FactBlocks
		}
	}
	return 0
}

// propagate closes the fact sets over the call graph: a worklist
// fixpoint in O(edges × facts).
func (f *Facts) propagate() {
	// Seed with local facts (table leaves were seeded during the scan).
	for id, fs := range f.local {
		f.set[id] |= fs
	}
	// Reverse edges for change-driven propagation.
	callers := make(map[string][]string)
	for caller, callees := range f.edges {
		for _, callee := range callees {
			callers[callee] = append(callers[callee], caller)
		}
	}
	work := make([]string, 0, len(f.set))
	for id := range f.set {
		work = append(work, id)
	}
	for len(work) > 0 {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		fs := f.set[id]
		for _, caller := range callers[id] {
			missing := fs &^ f.set[caller]
			if missing == 0 {
				continue
			}
			f.set[caller] |= missing
			for _, fn := range factNames {
				if missing&fn.bit == 0 {
					continue
				}
				if f.via[caller] == nil {
					f.via[caller] = make(map[FactSet]string)
				}
				if _, ok := f.via[caller][fn.bit]; !ok {
					f.via[caller][fn.bit] = id
				}
			}
			work = append(work, caller)
		}
	}
}
