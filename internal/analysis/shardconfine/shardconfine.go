// Package shardconfine enforces goroutine-confinement of struct
// fields. The fleet layer's correctness rests on state that is owned
// by exactly one execution domain — session.Session's monitor belongs
// to whichever goroutine holds the session's feedMu — and
// the session layer's Submit-vs-recycle race was exactly a cross-domain
// access that slipped through review. This analyzer turns that class
// into a build break.
//
// A field is confined by annotating it
//
//	mon *blinkradar.Monitor //blinkradar:confined feed
//
// and the domain's owning code is rooted at functions annotated
//
//	//blinkradar:entry feed
//
// (the worker entry points: the code that runs on the owning
// goroutine, or that provably holds the ownership lock, such as a
// constructor before publication). Every access to a confined field —
// selector read or write, or composite-literal initialization — must
// occur in a function reachable from one of the domain's entries over
// the call graph. All other code must communicate through sync/atomic
// fields or the submit queue; a deliberate exception (for example a
// field whose pointee offers its own atomic, cross-goroutine-safe
// accessors) is waived with //blinkvet:ignore shardconfine -- <why>.
package shardconfine

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"blinkradar/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "shardconfine",
	Doc:  "restrict //blinkradar:confined fields to code reachable from their domain's //blinkradar:entry functions",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	facts := pass.Facts
	if facts == nil {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn)
		}
	}
	return nil
}

// checkFunc flags confined-field accesses in one function unless the
// function is reachable from the field's domain entries.
func checkFunc(pass *analysis.Pass, decl *ast.FuncDecl) {
	fnObj, ok := pass.TypesInfo.Defs[decl.Name].(*types.Func)
	if !ok {
		return
	}
	id := analysis.FuncID(fnObj)
	facts := pass.Facts
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			sel, ok := pass.TypesInfo.Selections[n]
			if !ok || sel.Kind() != types.FieldVal {
				return true
			}
			owner := namedOf(sel.Recv())
			if owner == nil {
				return true
			}
			key := analysis.FieldKey(owner.Obj(), n.Sel.Name)
			report(pass, facts, id, decl.Name.Name, key, n.Sel.Pos(), owner.Obj().Name()+"."+n.Sel.Name)
		case *ast.CompositeLit:
			t := pass.TypesInfo.TypeOf(n)
			owner := namedOf(t)
			if owner == nil {
				return true
			}
			if _, ok := owner.Underlying().(*types.Struct); !ok {
				return true
			}
			for _, elt := range n.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				keyID, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				key := analysis.FieldKey(owner.Obj(), keyID.Name)
				report(pass, facts, id, decl.Name.Name, key, kv.Key.Pos(), owner.Obj().Name()+"."+keyID.Name)
			}
		}
		return true
	})
}

// report emits the diagnostic when key names a confined field and the
// accessing function is outside the domain's reachable set.
func report(pass *analysis.Pass, facts *analysis.Facts, fnID, fnName, key string, pos token.Pos, display string) {
	domain, ok := facts.ConfinedDomain(key)
	if !ok {
		return
	}
	entries := facts.Entries(domain)
	if len(entries) == 0 {
		pass.Reportf(pos, "field %s is confined to domain %q, which has no //blinkradar:entry functions", display, domain)
		return
	}
	if facts.Reachable(domain)[fnID] {
		return
	}
	short := make([]string, len(entries))
	for i, e := range entries {
		short[i] = analysis.ShortFuncID(e)
	}
	pass.Reportf(pos,
		"field %s is confined to domain %q; %s is not reachable from its entry points (%s) — route this through an atomic or the submit queue",
		display, domain, fnName, strings.Join(short, ", "))
}

// namedOf unwraps pointers and aliases to the defined type, or nil.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}
