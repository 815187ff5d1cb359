package lower

import (
	"objinline/internal/ir"
	"objinline/internal/lang/ast"
)

var binOpMap = map[ast.BinaryOp]ir.BinOp{
	ast.OpAdd: ir.BinAdd,
	ast.OpSub: ir.BinSub,
	ast.OpMul: ir.BinMul,
	ast.OpDiv: ir.BinDiv,
	ast.OpMod: ir.BinMod,
	ast.OpEq:  ir.BinEq,
	ast.OpNe:  ir.BinNe,
	ast.OpLt:  ir.BinLt,
	ast.OpLe:  ir.BinLe,
	ast.OpGt:  ir.BinGt,
	ast.OpGe:  ir.BinGe,
}

// expr lowers an expression and returns the register holding its value.
func (fb *funcBuilder) expr(e ast.Expr) ir.Reg {
	switch e := e.(type) {
	case *ast.IntLit:
		dst := fb.newReg()
		fb.emit(&ir.Instr{Op: ir.OpConstInt, Dst: dst, Aux: e.Value, Pos: e.Pos()})
		return dst
	case *ast.FloatLit:
		dst := fb.newReg()
		fb.emit(&ir.Instr{Op: ir.OpConstFloat, Dst: dst, F: e.Value, Pos: e.Pos()})
		return dst
	case *ast.StringLit:
		dst := fb.newReg()
		fb.emit(&ir.Instr{Op: ir.OpConstStr, Dst: dst, S: e.Value, Pos: e.Pos()})
		return dst
	case *ast.BoolLit:
		dst := fb.newReg()
		aux := int64(0)
		if e.Value {
			aux = 1
		}
		fb.emit(&ir.Instr{Op: ir.OpConstBool, Dst: dst, Aux: aux, Pos: e.Pos()})
		return dst
	case *ast.NilLit:
		dst := fb.newReg()
		fb.emit(&ir.Instr{Op: ir.OpConstNil, Dst: dst, Pos: e.Pos()})
		return dst
	case *ast.SelfExpr:
		if fb.fn.Class == nil {
			fb.l.errs.Add(e.Pos(), "self outside a method")
			dst := fb.newReg()
			fb.emit(&ir.Instr{Op: ir.OpConstNil, Dst: dst, Pos: e.Pos()})
			return dst
		}
		return 0
	case *ast.Ident:
		if r, ok := fb.lookup(e.Name); ok {
			return r
		}
		if g, ok := fb.l.globals[e.Name]; ok {
			dst := fb.newReg()
			fb.emit(&ir.Instr{Op: ir.OpGetGlobal, Dst: dst, Global: g, Pos: e.Pos()})
			return dst
		}
		fb.l.errs.Add(e.Pos(), "undeclared variable %s", e.Name)
		dst := fb.newReg()
		fb.emit(&ir.Instr{Op: ir.OpConstNil, Dst: dst, Pos: e.Pos()})
		return dst
	case *ast.BinaryExpr:
		if e.Op == ast.OpAnd || e.Op == ast.OpOr {
			return fb.shortCircuit(e)
		}
		return fb.leftSpine(e)
	case *ast.UnaryExpr:
		x := fb.expr(e.X)
		dst := fb.newReg()
		aux := int64(ir.UnNeg)
		if e.Op == ast.OpNot {
			aux = int64(ir.UnNot)
		}
		fb.emit(&ir.Instr{Op: ir.OpUn, Dst: dst, Args: []ir.Reg{x}, Aux: aux, Pos: e.Pos()})
		return dst
	case *ast.CallExpr:
		return fb.call(e)
	case *ast.MethodCallExpr, *ast.FieldExpr, *ast.IndexExpr:
		return fb.leftSpine(e)
	case *ast.NewExpr:
		return fb.newObject(e)
	case *ast.NewArrayExpr:
		n := fb.expr(e.Len)
		dst := fb.newReg()
		fb.emit(&ir.Instr{Op: ir.OpNewArray, Dst: dst, Args: []ir.Reg{n}, Pos: e.Pos()})
		return dst
	default:
		fb.l.errs.Add(e.Pos(), "unsupported expression")
		dst := fb.newReg()
		fb.emit(&ir.Instr{Op: ir.OpConstNil, Dst: dst, Pos: e.Pos()})
		return dst
	}
}

// leftOperand returns the operand lowered first when e is lowered as
// "that operand, then the rest": arithmetic and comparison operators,
// method calls, field reads and array reads.
func leftOperand(e ast.Expr) (ast.Expr, bool) {
	switch e := e.(type) {
	case *ast.BinaryExpr:
		if e.Op != ast.OpAnd && e.Op != ast.OpOr {
			return e.X, true
		}
	case *ast.MethodCallExpr:
		return e.Recv, true
	case *ast.FieldExpr:
		return e.Recv, true
	case *ast.IndexExpr:
		return e.Arr, true
	}
	return nil, false
}

// leftSpine lowers e by looping down its chain of left operands rather
// than recursing, so a long chain such as 1 + 2 + … + n or
// a.next.kids[0].step()… costs no Go stack depth proportional to its
// length. Registers and instructions come out exactly as the recursive
// order (left operand, other operands, the operation) would give them.
func (fb *funcBuilder) leftSpine(e ast.Expr) ir.Reg {
	base := len(fb.spine)
	for {
		x, ok := leftOperand(e)
		if !ok {
			break
		}
		fb.spine = append(fb.spine, e)
		e = x
	}
	top := len(fb.spine)
	acc := fb.expr(e)
	for i := top - 1; i >= base; i-- {
		acc = fb.applyTo(fb.spine[i], acc)
	}
	fb.spine = fb.spine[:base]
	return acc
}

// applyTo lowers the rest of e, a node leftOperand accepts, given the
// register holding its already lowered left operand.
func (fb *funcBuilder) applyTo(e ast.Expr, left ir.Reg) ir.Reg {
	switch e := e.(type) {
	case *ast.BinaryExpr:
		y := fb.expr(e.Y)
		dst := fb.newReg()
		fb.emit(&ir.Instr{Op: ir.OpBin, Dst: dst, Args: []ir.Reg{left, y}, Aux: int64(binOpMap[e.Op]), Pos: e.Pos()})
		return dst
	case *ast.MethodCallExpr:
		args := make([]ir.Reg, 0, len(e.Args)+1)
		args = append(args, left)
		for _, a := range e.Args {
			args = append(args, fb.expr(a))
		}
		dst := fb.newReg()
		fb.emit(&ir.Instr{Op: ir.OpCallMethod, Dst: dst, Args: args, Method: e.Method, Pos: e.Pos()})
		return dst
	case *ast.FieldExpr:
		dst := fb.newReg()
		fb.emit(&ir.Instr{Op: ir.OpGetField, Dst: dst, Args: []ir.Reg{left}, Field: fb.l.anchorField(e.Name), Pos: e.Pos()})
		return dst
	default:
		ix := e.(*ast.IndexExpr)
		idx := fb.expr(ix.Index)
		dst := fb.newReg()
		fb.emit(&ir.Instr{Op: ir.OpArrGet, Dst: dst, Args: []ir.Reg{left, idx}, Pos: ix.Pos()})
		return dst
	}
}

// shortCircuit lowers && and || to control flow with a merged result
// register.
func (fb *funcBuilder) shortCircuit(e *ast.BinaryExpr) ir.Reg {
	dst := fb.newReg()
	x := fb.expr(e.X)
	fb.emit(&ir.Instr{Op: ir.OpMove, Dst: dst, Args: []ir.Reg{x}, Pos: e.Pos()})
	rhs := fb.newBlock()
	join := fb.newBlock()
	br := &ir.Instr{Op: ir.OpBranch, Dst: ir.NoReg, Args: []ir.Reg{dst}, Pos: e.Pos()}
	if e.Op == ast.OpAnd {
		br.Target, br.Else = rhs.ID, join.ID // true: evaluate rhs
	} else {
		br.Target, br.Else = join.ID, rhs.ID // true: already done
	}
	fb.emit(br)
	fb.cur = rhs
	y := fb.expr(e.Y)
	fb.emit(&ir.Instr{Op: ir.OpMove, Dst: dst, Args: []ir.Reg{y}, Pos: e.Pos()})
	fb.jump(join, e.Pos())
	fb.cur = join
	return dst
}

func (fb *funcBuilder) call(e *ast.CallExpr) ir.Reg {
	args := make([]ir.Reg, len(e.Args))
	for i, a := range e.Args {
		args[i] = fb.expr(a)
	}
	dst := fb.newReg()
	if fn, ok := fb.l.funcs[e.Name]; ok && fn.Name != InitFuncName {
		if len(args) != fn.NumParams {
			fb.l.errs.Add(e.Pos(), "%s takes %d arguments, got %d", e.Name, fn.NumParams, len(args))
		}
		fb.emit(&ir.Instr{Op: ir.OpCall, Dst: dst, Args: args, Callee: fn, Pos: e.Pos()})
		return dst
	}
	if b, ok := ir.BuiltinByName(e.Name); ok {
		lo, hi := ir.BuiltinArity(b)
		if len(args) < lo || (hi >= 0 && len(args) > hi) {
			fb.l.errs.Add(e.Pos(), "wrong number of arguments to builtin %s", e.Name)
		}
		fb.emit(&ir.Instr{Op: ir.OpBuiltin, Dst: dst, Args: args, Aux: int64(b), Pos: e.Pos()})
		return dst
	}
	fb.l.errs.Add(e.Pos(), "call to unknown function %s", e.Name)
	fb.emit(&ir.Instr{Op: ir.OpConstNil, Dst: dst, Pos: e.Pos()})
	return dst
}

// newObject lowers "new C(args)": allocate, then statically call the
// class's init method (resolved through the superclass chain) if any.
func (fb *funcBuilder) newObject(e *ast.NewExpr) ir.Reg {
	cls, ok := fb.l.classes[e.Class]
	if !ok {
		fb.l.errs.Add(e.Pos(), "new of unknown class %s", e.Class)
		dst := fb.newReg()
		fb.emit(&ir.Instr{Op: ir.OpConstNil, Dst: dst, Pos: e.Pos()})
		return dst
	}
	args := make([]ir.Reg, len(e.Args))
	for i, a := range e.Args {
		args[i] = fb.expr(a)
	}
	dst := fb.newReg()
	fb.emit(&ir.Instr{Op: ir.OpNewObject, Dst: dst, Class: cls, Pos: e.Pos()})
	initFn := cls.LookupMethod("init")
	if initFn == nil {
		if len(args) > 0 {
			fb.l.errs.Add(e.Pos(), "class %s has no init method but new was given arguments", e.Class)
		}
		return dst
	}
	if len(args) != initFn.NumParams {
		fb.l.errs.Add(e.Pos(), "%s::init takes %d arguments, got %d", e.Class, initFn.NumParams, len(args))
	}
	callArgs := append([]ir.Reg{dst}, args...)
	tmp := fb.newReg()
	fb.emit(&ir.Instr{Op: ir.OpCallStatic, Dst: tmp, Args: callArgs, Callee: initFn, Pos: e.Pos()})
	return dst
}
