package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// MapIter flags range-over-map loops in golden-pinned packages whose
// bodies do order-sensitive work. Go randomizes map iteration order,
// so a loop that draws from a threaded RNG, appends to an
// outer-scoped slice, accumulates floats or strings, assigns the key
// or value to an outer-scoped variable (the first or last key wins),
// sends on a channel, or pushes into a transport/encoder produces
// run-to-run-different bytes. Sanctioned sites (the body is provably
// order-insensitive, or keys are drained and sorted first) carry a
// justified //lint:sorted directive.
var MapIter = &Analyzer{
	Name: "mapiter",
	Doc:  "flag order-sensitive bodies under range-over-map in golden-pinned packages",
	Run:  runMapIter,
}

// orderSinkMethods are method names whose call inside a map-ordered
// loop pushes bytes toward a golden artifact or a peer.
var orderSinkMethods = map[string]bool{
	"Send": true, "Broadcast": true, "Upload": true, "Publish": true,
	"Encode": true, "Gather": true,
}

func runMapIter(pass *Pass) error {
	if !IsDeterministicPkg(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		if pass.IsTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypeOf(rng.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if reason := orderSensitive(pass, rng); reason != "" {
				pass.Reportf(rng.For,
					"range over map is iteration-order-sensitive (%s) in golden-pinned package %s: iterate sorted keys, or sanction with //lint:sorted <why order cannot leak>",
					reason, pass.Pkg.Name())
			}
			return true
		})
	}
	return nil
}

// orderSensitive classifies the loop body; a non-empty return is the
// human-readable reason the iteration order can leak into output.
func orderSensitive(pass *Pass, rng *ast.RangeStmt) string {
	body := rng.Body
	var reason string
	set := func(r string) {
		if reason == "" {
			reason = r
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			set("sends on a channel")
		case *ast.CallExpr:
			if isAppendToOuter(pass, n, body) {
				set("appends to a slice declared outside the loop")
			}
			if consumesRand(pass, n) {
				set("consumes a threaded RNG stream")
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				name := sel.Sel.Name
				if orderSinkMethods[name] || strings.HasPrefix(name, "Write") {
					set("pushes into a transport/encoder (" + name + ")")
				}
			}
		case *ast.AssignStmt:
			if r := orderSensitiveAssign(pass, n, body); r != "" {
				set(r)
			}
			if assignsIterVar(pass, n, rng) {
				set("assigns the key or value to a variable declared outside the loop (the first or last key wins)")
			}
		}
		return true
	})
	return reason
}

// isAppendToOuter reports whether call is append(dst, ...) with dst
// declared outside the loop body.
func isAppendToOuter(pass *Pass, call *ast.CallExpr, body *ast.BlockStmt) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" || len(call.Args) == 0 {
		return false
	}
	if b, ok := pass.ObjectOf(id).(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	dst, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return false
	}
	return declaredOutside(pass, dst, body)
}

// orderSensitiveAssign flags compound accumulation (+=, -=, *=, /=)
// into an outer variable of float or string kind — the
// non-associative cases where accumulation order changes the bytes.
func orderSensitiveAssign(pass *Pass, as *ast.AssignStmt, body *ast.BlockStmt) string {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
	default:
		return ""
	}
	for _, lhs := range as.Lhs {
		id, ok := rootIdent(lhs)
		if !ok || !declaredOutside(pass, id, body) {
			continue
		}
		t := pass.TypeOf(lhs)
		if t == nil {
			continue
		}
		if b, ok := t.Underlying().(*types.Basic); ok {
			switch {
			case b.Info()&types.IsFloat != 0, b.Info()&types.IsComplex != 0:
				return "accumulates floats in iteration order (FP addition is non-associative)"
			case b.Info()&types.IsString != 0:
				return "concatenates strings in iteration order"
			}
		}
	}
	return ""
}

// assignsIterVar reports whether as is a plain assignment that stores
// an expression of the range statement's key or value into a variable
// declared outside the loop body — `any = k; break` or `last = v`.
// Writes into a slot indexed by the key or value (`out[k] = v`) are
// keyed, not order-sensitive, and are left alone; `s = append(s, k)`
// is reported by the append rule.
func assignsIterVar(pass *Pass, as *ast.AssignStmt, rng *ast.RangeStmt) bool {
	if as.Tok != token.ASSIGN {
		return false
	}
	for _, rhs := range as.Rhs {
		if call, ok := rhs.(*ast.CallExpr); ok && isAppendToOuter(pass, call, rng.Body) {
			return false
		}
	}
	var iter []types.Object
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.ObjectOf(id); obj != nil {
				iter = append(iter, obj)
			}
		}
	}
	if len(iter) == 0 {
		return false
	}
	mentions := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				for _, obj := range iter {
					if pass.ObjectOf(id) == obj {
						found = true
					}
				}
			}
			return !found
		})
		return found
	}
	if !slices.ContainsFunc(as.Rhs, mentions) {
		return false
	}
	for _, lhs := range as.Lhs {
		if keyedSlot(lhs, mentions) {
			continue
		}
		if id, ok := rootIdent(lhs); ok && id.Name != "_" && declaredOutside(pass, id, rng.Body) {
			return true
		}
	}
	return false
}

// keyedSlot reports whether lhs indexes anywhere along its path with an
// expression for which keyed reports true.
func keyedSlot(lhs ast.Expr, keyed func(ast.Expr) bool) bool {
	for {
		switch v := lhs.(type) {
		case *ast.IndexExpr:
			if keyed(v.Index) {
				return true
			}
			lhs = v.X
		case *ast.SelectorExpr:
			lhs = v.X
		case *ast.StarExpr:
			lhs = v.X
		case *ast.ParenExpr:
			lhs = v.X
		default:
			return false
		}
	}
}

// consumesRand reports whether the call advances a *rand.Rand stream:
// a method on *rand.Rand, or any function taking one as an argument
// (the mathx helpers all thread the generator explicitly).
func consumesRand(pass *Pass, call *ast.CallExpr) bool {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if isRandPtr(pass.TypeOf(sel.X)) {
			return true
		}
	}
	for _, arg := range call.Args {
		if isRandPtr(pass.TypeOf(arg)) {
			return true
		}
	}
	return false
}

func isRandPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Name() != "Rand" {
		return false
	}
	p := obj.Pkg().Path()
	return p == "math/rand" || p == "math/rand/v2"
}

// rootIdent unwraps x[i].f style expressions to the base identifier.
func rootIdent(e ast.Expr) (*ast.Ident, bool) {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v, true
		case *ast.IndexExpr:
			e = v.X
		case *ast.SelectorExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return nil, false
		}
	}
}

// declaredOutside reports whether id's object is declared outside
// body (and outside the range statement's own Key/Value vars).
func declaredOutside(pass *Pass, id *ast.Ident, body *ast.BlockStmt) bool {
	obj := pass.ObjectOf(id)
	if obj == nil {
		return false
	}
	return obj.Pos() < body.Lbrace || obj.Pos() > body.Rbrace
}
