"""Abstract interpretation of kernel source into the summary IR.

The corpus convention makes whole-program analysis tractable: every
kernel is a class whose ``buggy``/``fixed`` staticmethods call a shared
``_program(rt, <flag>)`` with *literal constant* flags.  The interpreter
exploits that — it propagates constants through calls, folds branches on
them, and thereby *specializes* the program to the variant under
analysis, exactly like a compiler would.  What it cannot decide (a
comparison on a runtime value) forks the path; what it cannot bound (a
``while True`` loop, a ``range`` over an unknown count) it walks once
and marks every op inside with ``mult="*"``.

The output is a :class:`~repro.static.ir.ProgramModel`: one thread per
``rt.go`` spawn (unrolled loop iterations spawn distinct threads, so
per-thread constant arguments survive), each op annotated with the held
lockset.  No kernel code is ever executed.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, List, Optional, Tuple

from .ir import MANY, ONCE, AbstractObj, Op, Path, ProgramModel, ThreadModel
from .source import class_node

STATE_CAP = 64          # explored paths per thread body
UNROLL_CAP = 16         # literal-loop unrolling bound
CALL_DEPTH_CAP = 12


class _Unknown:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "<?>"


UNKNOWN = _Unknown()


class Const:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return f"Const({self.value!r})"


class RT:
    """The ``rt`` parameter: the runtime API sentinel."""

    def __repr__(self):
        return "<rt>"


class RtMethod:
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class FuncVal:
    __slots__ = ("node", "env", "name", "self_obj")

    def __init__(self, node, env, name, self_obj=None):
        self.node = node          # FunctionDef or Lambda
        self.env = env
        self.name = name
        self.self_obj = self_obj


class ClassVal:
    __slots__ = ("name", "methods", "env")

    def __init__(self, name, methods, env):
        self.name = name
        self.methods = methods    # name -> FunctionDef node
        self.env = env


class ClassRef:
    """Reference to the kernel class itself (constants + staticmethods)."""

    __slots__ = ("consts", "methods")

    def __init__(self, consts, methods):
        self.consts = consts
        self.methods = methods


class BoundMethod:
    __slots__ = ("obj", "name")

    def __init__(self, obj, name):
        self.obj = obj
        self.name = name


class CaseCtor:
    __slots__ = ("kind",)

    def __init__(self, kind):
        self.kind = kind


class CaseVal:
    __slots__ = ("kind", "chan")

    def __init__(self, kind, chan):
        self.kind = kind
        self.chan = chan


class TupleVal:
    __slots__ = ("items",)

    def __init__(self, items):
        self.items = tuple(items)


class RLocker:
    __slots__ = ("mutex",)

    def __init__(self, mutex):
        self.mutex = mutex


class Env:
    __slots__ = ("vars", "parent")

    def __init__(self, parent=None):
        self.vars: Dict[str, Any] = {}
        self.parent = parent

    def lookup(self, name):
        env = self
        while env is not None:
            if name in env.vars:
                return env.vars[name]
            env = env.parent
        return None

    def bind(self, name, value):
        self.vars[name] = value


class State:
    """One path-in-progress: its ops, lockset and control flow."""

    __slots__ = ("ops", "locks", "flow", "mult_depth", "once_depth",
                 "recv_idx", "retval")

    def __init__(self):
        self.ops: List[Op] = []
        self.locks: Tuple[Tuple[AbstractObj, str], ...] = ()
        self.flow = "next"        # next | return | break | continue | raise
        self.mult_depth = 0
        self.once_depth = 0
        self.recv_idx: Dict[int, int] = {}
        self.retval: Any = None

    def fork(self) -> "State":
        st = State.__new__(State)
        st.ops = list(self.ops)
        st.locks = self.locks
        st.flow = self.flow
        st.mult_depth = self.mult_depth
        st.once_depth = self.once_depth
        st.recv_idx = dict(self.recv_idx)
        st.retval = self.retval
        return st


def _const(value) -> bool:
    return isinstance(value, Const)


class StaticInterp:
    """Interpret one kernel class into a :class:`ProgramModel`."""

    def __init__(self, kernel_cls):
        self.kernel_cls = kernel_cls
        self.class_node = class_node(kernel_cls)
        self.methods: Dict[str, ast.FunctionDef] = {}
        self.consts: Dict[str, Any] = {}
        for node in self.class_node.body:
            if isinstance(node, ast.FunctionDef):
                self.methods[node.name] = node
            elif isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                try:
                    self.consts[node.targets[0].id] = \
                        Const(ast.literal_eval(node.value))
                except (ValueError, SyntaxError):
                    pass

    # -- top level ----------------------------------------------------

    def analyze(self, variant: str = "buggy") -> ProgramModel:
        self._oid = 0
        self._objects: Dict[int, AbstractObj] = {}
        self._chan_values: Dict[int, List[Any]] = {}
        self._pending: List[Tuple[str, FuncVal, tuple, str, str, str]] = []
        self._spawned_keys = set()
        self._depth = 0
        self._class_ref = ClassRef(self.consts, self.methods)

        model = ProgramModel(target=variant)
        entry = self.methods.get(variant)
        if entry is None:
            raise ValueError(f"kernel has no {variant!r} method")

        env = Env()
        env.bind(self.class_node.name, self._class_ref)
        fn = FuncVal(entry, env, variant)

        main = self._run_thread("main", fn, (RT(),), None, ONCE, "main")
        model.threads.append(main)

        cursor = 0
        while cursor < len(self._pending):
            key, fval, args, parent, mult, name = self._pending[cursor]
            cursor += 1
            if len(model.threads) > 64:
                break
            model.threads.append(
                self._run_thread(key, fval, args, parent, mult, name))
        model.objects = self._objects
        return model

    def _run_thread(self, key, fval, args, parent, mult, name) -> ThreadModel:
        st = State()
        if mult == MANY:
            st.mult_depth = 1
        self._cur_thread_key = key
        results = self._apply(fval, list(args), {}, st, 0)
        thread = ThreadModel(key=key, name=name, mult=mult, parent_key=parent)
        for end_st, _val in results[:STATE_CAP]:
            thread.paths.append(Path(ops=end_st.ops,
                                     returned=end_st.flow in ("next",
                                                              "return")))
        if not thread.paths:
            thread.paths.append(Path())
        return thread

    # -- object factory -----------------------------------------------

    def _new_obj(self, kind, name, line=0) -> AbstractObj:
        self._oid += 1
        obj = AbstractObj(kind, name or f"{kind}#{self._oid}", self._oid,
                          line)
        self._objects[obj.oid] = obj
        return obj

    # -- statements ----------------------------------------------------

    def _exec_block(self, stmts, states: List[State]) -> List[State]:
        for stmt in stmts:
            nxt: List[State] = []
            for st in states:
                if st.flow != "next":
                    nxt.append(st)
                else:
                    nxt.extend(self._exec_stmt(stmt, st))
            states = nxt[:STATE_CAP]
        return states

    def _exec_stmt(self, stmt, st: State) -> List[State]:
        if isinstance(stmt, ast.Expr):
            return [s for s, _ in self._eval(stmt.value, st)]
        if isinstance(stmt, ast.Assign):
            out = []
            for s, val in self._eval(stmt.value, st):
                for target in stmt.targets:
                    self._bind_target(target, val, s)
                out.append(s)
            return out
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is None:
                return [st]
            out = []
            for s, val in self._eval(stmt.value, st):
                self._bind_target(stmt.target, val, s)
                out.append(s)
            return out
        if isinstance(stmt, ast.AugAssign):
            out = []
            for s, cur in self._eval(stmt.target, st):
                for s2, inc in self._eval(stmt.value, s):
                    val = UNKNOWN
                    if _const(cur) and _const(inc):
                        try:
                            val = Const(self._fold_binop(
                                stmt.op, cur.value, inc.value))
                        except Exception:
                            val = UNKNOWN
                    self._bind_target(stmt.target, val, s2)
                    out.append(s2)
            return out
        if isinstance(stmt, ast.Return):
            if stmt.value is None:
                st.flow = "return"
                st.retval = Const(None)
                return [st]
            out = []
            for s, val in self._eval(stmt.value, st):
                s.flow = "return"
                s.retval = val
                out.append(s)
            return out
        if isinstance(stmt, ast.If):
            return self._exec_if(stmt, st)
        if isinstance(stmt, ast.While):
            return self._exec_while(stmt, st)
        if isinstance(stmt, ast.For):
            return self._exec_for(stmt, st)
        if isinstance(stmt, ast.With):
            return self._exec_with(stmt, st)
        if isinstance(stmt, ast.Try):
            return self._exec_try(stmt, st)
        if isinstance(stmt, ast.FunctionDef):
            env = self._cur_env
            env.bind(stmt.name, FuncVal(stmt, env, stmt.name))
            return [st]
        if isinstance(stmt, ast.ClassDef):
            methods = {n.name: n for n in stmt.body
                       if isinstance(n, ast.FunctionDef)}
            self._cur_env.bind(stmt.name,
                               ClassVal(stmt.name, methods, self._cur_env))
            return [st]
        if isinstance(stmt, ast.Break):
            st.flow = "break"
            return [st]
        if isinstance(stmt, ast.Continue):
            st.flow = "continue"
            return [st]
        if isinstance(stmt, ast.Raise):
            st.flow = "raise"
            return [st]
        if isinstance(stmt, (ast.Pass, ast.Global, ast.Nonlocal,
                             ast.Import, ast.ImportFrom, ast.Assert,
                             ast.Delete)):
            return [st]
        return [st]

    def _exec_if(self, stmt, st: State) -> List[State]:
        out = []
        for s, cond in self._eval(stmt.test, st):
            truth = self._truth(cond)
            if truth is True:
                out.extend(self._exec_block(stmt.body, [s]))
            elif truth is False:
                out.extend(self._exec_block(stmt.orelse, [s]))
            else:
                out.extend(self._exec_block(stmt.body, [s.fork()]))
                out.extend(self._exec_block(stmt.orelse, [s]))
        return out

    def _exec_while(self, stmt, st: State) -> List[State]:
        out = []
        for s, cond in self._eval(stmt.test, st):
            truth = self._truth(cond)
            if truth is False:
                out.append(s)
                continue
            body = s if truth is True else s.fork()
            body.mult_depth += 1
            ends = self._exec_block(stmt.body, [body])
            for e in ends:
                e.mult_depth = max(0, e.mult_depth - 1)
                if e.flow in ("break", "continue"):
                    e.flow = "next"
                out.append(e)
            if truth is not True:
                out.append(s)       # zero-iteration path
        return out

    def _exec_for(self, stmt, st: State) -> List[State]:
        out = []
        for s, iterable in self._eval(stmt.iter, st):
            items = None
            if _const(iterable):
                v = iterable.value
                if isinstance(v, (list, tuple, str, range)):
                    seq = list(v)
                    if len(seq) <= UNROLL_CAP:
                        items = [Const(x) for x in seq]
            elif isinstance(iterable, TupleVal) and \
                    len(iterable.items) <= UNROLL_CAP:
                items = list(iterable.items)

            if items is not None:
                states = [s]
                broke: List[State] = []
                for item in items:
                    nxt: List[State] = []
                    for cur in states:
                        if cur.flow != "next":
                            (broke if cur.flow == "break"
                             else nxt).append(cur)
                            continue
                        self._bind_target(stmt.target, item, cur)
                        for e in self._exec_block(stmt.body, [cur]):
                            if e.flow == "continue":
                                e.flow = "next"
                            if e.flow == "break":
                                e.flow = "next"
                                broke.append(e)
                            else:
                                nxt.append(e)
                    states = nxt[:STATE_CAP]
                for e in states + broke:
                    if e.flow == "break":
                        e.flow = "next"
                    out.append(e)
                continue

            if isinstance(iterable, AbstractObj) and iterable.kind == "chan":
                self._record(s, Op("range", iterable, stmt.lineno,
                                   lockset=s.locks,
                                   mult=self._mult(s),
                                   in_once=s.once_depth > 0))
                sent = self._chan_values.get(iterable.oid, [])
                self._bind_target(stmt.target,
                                  sent[0] if sent else UNKNOWN, s)
            else:
                self._bind_target(stmt.target, UNKNOWN, s)
            s.mult_depth += 1
            for e in self._exec_block(stmt.body, [s]):
                e.mult_depth = max(0, e.mult_depth - 1)
                if e.flow in ("break", "continue"):
                    e.flow = "next"
                out.append(e)
        return out

    def _exec_with(self, stmt, st: State) -> List[State]:
        states = [st]
        acquired: List[Tuple[AbstractObj, str]] = []
        for item in stmt.items:
            nxt = []
            for s in states:
                for s2, ctx in self._eval(item.context_expr, s):
                    lock = self._as_lock(ctx)
                    if lock is not None:
                        obj, mode = lock
                        self._acquire(s2, obj, mode, stmt.lineno)
                        if (obj, mode) not in acquired:
                            acquired.append((obj, mode))
                    if item.optional_vars is not None:
                        self._bind_target(item.optional_vars,
                                          ctx if lock is None else UNKNOWN,
                                          s2)
                    nxt.append(s2)
            states = nxt
        ends = self._exec_block(stmt.body, states)
        for e in ends:
            for obj, mode in reversed(acquired):
                self._release(e, obj, mode, stmt.lineno)
        return ends

    def _exec_try(self, stmt, st: State) -> List[State]:
        pre = st.fork()
        ends = self._exec_block(stmt.body, [st])
        ok = [e for e in ends if e.flow != "raise"]
        if stmt.handlers:
            for handler in stmt.handlers:
                ok.extend(self._exec_block(handler.body, [pre.fork()]))
        else:
            ok.extend(e for e in ends if e.flow == "raise")
        if stmt.orelse:
            nxt = []
            for e in ok:
                if e.flow == "next":
                    nxt.extend(self._exec_block(stmt.orelse, [e]))
                else:
                    nxt.append(e)
            ok = nxt
        if stmt.finalbody:
            fin = []
            for e in ok:
                flow, e.flow = e.flow, "next"
                for f in self._exec_block(stmt.finalbody, [e]):
                    if f.flow == "next":
                        f.flow = flow
                    fin.append(f)
            ok = fin
        return ok[:STATE_CAP]

    # -- helpers -------------------------------------------------------

    def _as_lock(self, value) -> Optional[Tuple[AbstractObj, str]]:
        if isinstance(value, AbstractObj) and value.kind in ("mutex",
                                                            "rwmutex"):
            return (value, "w")
        if isinstance(value, RLocker):
            return (value.mutex, "r")
        return None

    def _mult(self, st: State) -> str:
        return MANY if st.mult_depth > 0 else ONCE

    def _record(self, st: State, op: Op) -> None:
        st.ops.append(op)

    def _op(self, st: State, kind, obj, line, **kw) -> Op:
        op = Op(kind, obj, line, lockset=st.locks, mult=self._mult(st),
                in_once=st.once_depth > 0, **kw)
        self._record(st, op)
        return op

    def _acquire(self, st, obj, mode, line):
        self._op(st, "acquire", obj, line, mode=mode)
        st.locks = st.locks + ((obj, mode),)

    def _release(self, st, obj, mode, line):
        locks = list(st.locks)
        for i in range(len(locks) - 1, -1, -1):
            if locks[i][0] is obj and locks[i][1] == mode:
                del locks[i]
                st.locks = tuple(locks)
                self._op(st, "release", obj, line, mode=mode)
                return
        self._op(st, "release", obj, line, mode=mode, detail="unmatched")

    def _truth(self, value) -> Optional[bool]:
        if _const(value):
            return bool(value.value)
        if isinstance(value, (AbstractObj, FuncVal, ClassVal, TupleVal)):
            return True
        return None

    def _bind_target(self, target, value, st: State) -> None:
        if isinstance(target, ast.Name):
            self._cur_env.bind(target.id, value)
        elif isinstance(target, (ast.Tuple, ast.List)):
            items = None
            if isinstance(value, TupleVal):
                items = value.items
            elif _const(value) and isinstance(value.value, (tuple, list)):
                items = tuple(Const(v) for v in value.value)
            for i, elt in enumerate(target.elts):
                item = items[i] if items is not None and i < len(items) \
                    else UNKNOWN
                self._bind_target(elt, item, st)
        elif isinstance(target, ast.Attribute):
            for s, base in self._eval(target.value, st):
                if isinstance(base, AbstractObj) and base.kind == "instance":
                    base.attrs[target.attr] = value
        # subscript targets etc.: ignored

    # -- expressions ---------------------------------------------------

    def _eval(self, node, st: State) -> List[Tuple[State, Any]]:
        try:
            return self._eval_inner(node, st)
        except RecursionError:
            return [(st, UNKNOWN)]

    def _eval_inner(self, node, st: State) -> List[Tuple[State, Any]]:
        if isinstance(node, ast.Constant):
            return [(st, Const(node.value))]
        if isinstance(node, ast.Name):
            val = self._cur_env.lookup(node.id)
            if val is None:
                if node.id in ("recv", "send"):
                    return [(st, CaseCtor(node.id))]
                return [(st, UNKNOWN)]
            return [(st, val)]
        if isinstance(node, ast.Attribute):
            out = []
            for s, base in self._eval(node.value, st):
                out.append((s, self._getattr(base, node.attr)))
            return out
        if isinstance(node, ast.Call):
            return self._eval_call(node, st)
        if isinstance(node, ast.Compare):
            return self._eval_compare(node, st)
        if isinstance(node, ast.BoolOp):
            return self._eval_boolop(node, st)
        if isinstance(node, ast.UnaryOp):
            out = []
            for s, v in self._eval(node.operand, st):
                if _const(v):
                    try:
                        if isinstance(node.op, ast.Not):
                            out.append((s, Const(not v.value)))
                        elif isinstance(node.op, ast.USub):
                            out.append((s, Const(-v.value)))
                        else:
                            out.append((s, UNKNOWN))
                        continue
                    except Exception:
                        pass
                truth = self._truth(v)
                if isinstance(node.op, ast.Not) and truth is not None:
                    out.append((s, Const(not truth)))
                else:
                    out.append((s, UNKNOWN))
            return out
        if isinstance(node, ast.BinOp):
            out = []
            for s, left in self._eval(node.left, st):
                for s2, right in self._eval(node.right, s):
                    if _const(left) and _const(right):
                        try:
                            out.append((s2, Const(self._fold_binop(
                                node.op, left.value, right.value))))
                            continue
                        except Exception:
                            pass
                    out.append((s2, UNKNOWN))
            return out
        if isinstance(node, ast.IfExp):
            out = []
            for s, cond in self._eval(node.test, st):
                truth = self._truth(cond)
                if truth is True:
                    out.extend(self._eval(node.body, s))
                elif truth is False:
                    out.extend(self._eval(node.orelse, s))
                else:
                    out.extend(self._eval(node.body, s.fork()))
                    out.extend(self._eval(node.orelse, s))
            return out
        if isinstance(node, (ast.Tuple, ast.List)):
            return self._eval_seq(node.elts, st)
        if isinstance(node, ast.Dict):
            try:
                return [(st, Const(ast.literal_eval(node)))]
            except (ValueError, SyntaxError):
                return [(st, UNKNOWN)]
        if isinstance(node, ast.Set):
            return [(st, UNKNOWN)]
        if isinstance(node, ast.Subscript):
            out = []
            for s, base in self._eval(node.value, st):
                for s2, idx in self._eval(node.slice, s):
                    val = UNKNOWN
                    if _const(idx):
                        if isinstance(base, TupleVal) and \
                                isinstance(idx.value, int) and \
                                0 <= idx.value < len(base.items):
                            val = base.items[idx.value]
                        elif _const(base):
                            try:
                                val = Const(base.value[idx.value])
                            except Exception:
                                val = UNKNOWN
                    out.append((s2, val))
            return out
        if isinstance(node, ast.Lambda):
            return [(st, FuncVal(node, self._cur_env, "<lambda>"))]
        if isinstance(node, ast.JoinedStr):
            parts = []
            s = st
            const = True
            for piece in node.values:
                if isinstance(piece, ast.Constant):
                    parts.append(str(piece.value))
                    continue
                results = self._eval(piece.value, s)
                s, v = results[0]
                if _const(v):
                    parts.append(str(v.value))
                else:
                    const = False
            return [(s, Const("".join(parts)) if const else UNKNOWN)]
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            # walk the element once so embedded ops are not lost
            for gen in node.generators:
                for s, _ in self._eval(gen.iter, st):
                    st = s
                self._bind_target(gen.target, UNKNOWN, st)
            elt = node.elt if not isinstance(node, ast.DictComp) else \
                node.value
            for s, _ in self._eval(elt, st):
                st = s
            return [(st, UNKNOWN)]
        if isinstance(node, ast.Starred):
            return self._eval(node.value, st)
        if isinstance(node, ast.Await):
            return self._eval(node.value, st)
        return [(st, UNKNOWN)]

    def _eval_seq(self, nodes, st: State) -> List[Tuple[State, Any]]:
        states_vals: List[Tuple[State, List[Any]]] = [(st, [])]
        for node in nodes:
            nxt = []
            for s, vals in states_vals:
                for s2, v in self._eval(node, s):
                    nxt.append((s2, vals + [v]))
            states_vals = nxt[:STATE_CAP]
        out = []
        for s, vals in states_vals:
            if all(_const(v) for v in vals):
                out.append((s, Const(tuple(v.value for v in vals))))
            else:
                out.append((s, TupleVal(vals)))
        return out

    def _fold_binop(self, op, a, b):
        import operator as _op

        table = {ast.Add: _op.add, ast.Sub: _op.sub, ast.Mult: _op.mul,
                 ast.Div: _op.truediv, ast.FloorDiv: _op.floordiv,
                 ast.Mod: _op.mod, ast.Pow: _op.pow}
        return table[type(op)](a, b)

    def _eval_compare(self, node, st: State) -> List[Tuple[State, Any]]:
        out = []
        for s, left in self._eval(node.left, st):
            vals = [left]
            s_cur = s
            for comp in node.comparators:
                results = self._eval(comp, s_cur)
                s_cur, v = results[0]
                vals.append(v)
            verdict: Optional[bool] = True
            for op, lv, rv in zip(node.ops, vals, vals[1:]):
                folded = self._fold_compare(op, lv, rv)
                if folded is None:
                    verdict = None
                    break
                if not folded:
                    verdict = False
                    break
            out.append((s_cur, Const(verdict) if verdict is not None
                        else UNKNOWN))
        return out

    def _fold_compare(self, op, left, right) -> Optional[bool]:
        if isinstance(op, (ast.Is, ast.IsNot)):
            neg = isinstance(op, ast.IsNot)
            if _const(left) and _const(right):
                return (left.value is right.value) != neg
            if isinstance(left, (AbstractObj, TupleVal, FuncVal)) and \
                    _const(right) and right.value is None:
                return neg
            if isinstance(right, (AbstractObj, TupleVal, FuncVal)) and \
                    _const(left) and left.value is None:
                return neg
            return None
        if _const(left) and _const(right):
            import operator as _op

            table = {ast.Eq: _op.eq, ast.NotEq: _op.ne, ast.Lt: _op.lt,
                     ast.LtE: _op.le, ast.Gt: _op.gt, ast.GtE: _op.ge}
            fn = table.get(type(op))
            if fn is not None:
                try:
                    return bool(fn(left.value, right.value))
                except Exception:
                    return None
            if isinstance(op, ast.In):
                try:
                    return left.value in right.value
                except Exception:
                    return None
            if isinstance(op, ast.NotIn):
                try:
                    return left.value not in right.value
                except Exception:
                    return None
        return None

    def _eval_boolop(self, node, st: State) -> List[Tuple[State, Any]]:
        is_and = isinstance(node.op, ast.And)
        states = [(st, None, False)]  # (state, value, decided)
        for value_node in node.values:
            nxt = []
            for s, val, decided in states:
                if decided:
                    nxt.append((s, val, True))
                    continue
                for s2, v in self._eval(value_node, s):
                    truth = self._truth(v)
                    if truth is None:
                        nxt.append((s2, UNKNOWN, True))
                    elif truth != is_and:     # short-circuit value
                        nxt.append((s2, v, True))
                    else:
                        nxt.append((s2, v, False))
            states = nxt[:STATE_CAP]
        return [(s, v if v is not None else UNKNOWN) for s, v, _ in states]

    # -- attribute / call dispatch ------------------------------------

    def _getattr(self, base, attr):
        if isinstance(base, RT):
            return RtMethod(attr)
        if isinstance(base, ClassRef):
            if attr in base.consts:
                return base.consts[attr]
            if attr in base.methods:
                env = Env()
                env.bind(self.class_node.name, self._class_ref)
                return FuncVal(base.methods[attr], env, attr)
            return UNKNOWN
        if isinstance(base, AbstractObj):
            if base.kind == "instance":
                if attr in base.attrs:
                    return base.attrs[attr]
                cls = base.attrs.get("__class__")
                if isinstance(cls, ClassVal) and attr in cls.methods:
                    return FuncVal(cls.methods[attr], cls.env, attr,
                                   self_obj=base)
                return UNKNOWN
            if base.kind in ("timer", "ticker") and attr == "c":
                return base.attrs["c"]
            return BoundMethod(base, attr)
        if isinstance(base, ClassVal):
            if attr in base.methods:
                return FuncVal(base.methods[attr], base.env, attr)
            return UNKNOWN
        return UNKNOWN

    def _eval_call(self, node, st: State) -> List[Tuple[State, Any]]:
        out = []
        for s, fn in self._eval(node.func, st):
            arg_sets: List[Tuple[State, List[Any]]] = [(s, [])]
            for arg in node.args:
                nxt = []
                for s2, vals in arg_sets:
                    for s3, v in self._eval(arg, s2):
                        nxt.append((s3, vals + [v]))
                arg_sets = nxt[:STATE_CAP]
            for s2, args in arg_sets:
                kwargs = {}
                s3 = s2
                for kw in node.keywords:
                    if kw.arg is None:
                        continue
                    results = self._eval(kw.value, s3)
                    s3, v = results[0]
                    kwargs[kw.arg] = v
                out.extend(self._apply(fn, args, kwargs, s3, node.lineno,
                                       func_node=node.func))
        return out[:STATE_CAP]

    def _apply(self, fn, args, kwargs, st: State, line,
               func_node=None) -> List[Tuple[State, Any]]:
        if isinstance(fn, RtMethod):
            return self._apply_rt(fn.name, args, kwargs, st, line)
        if isinstance(fn, BoundMethod):
            return self._apply_method(fn.obj, fn.name, args, kwargs, st,
                                      line)
        if isinstance(fn, CaseCtor):
            chan = args[0] if args else UNKNOWN
            if isinstance(chan, AbstractObj):
                return [(st, CaseVal(fn.kind, chan))]
            return [(st, UNKNOWN)]
        if isinstance(fn, FuncVal):
            return self._call_func(fn, args, st, line, kwargs)
        if isinstance(fn, ClassVal):
            inst = self._new_obj("instance", fn.name, line)
            inst.attrs["__class__"] = fn
            init = fn.methods.get("__init__")
            results = [(st, None)]
            if init is not None:
                results = self._call_func(
                    FuncVal(init, fn.env, "__init__", self_obj=inst),
                    args, st, line, kwargs)
            return [(s, inst) for s, _ in results]
        if isinstance(fn, AbstractObj):
            if fn.kind == "cancel":
                # cancel handles are called directly: ``cancel()``
                fn.cancel_called = True
                self._op(st, "cancel", fn, line)
                return [(st, Const(None))]
            return [(st, UNKNOWN)]
        if isinstance(fn, _Unknown) or fn is None or _const(fn):
            # builtins reachable by bare name
            name = func_node.id if isinstance(func_node, ast.Name) else None
            return self._apply_builtin(name, args, kwargs, st, line)
        return [(st, UNKNOWN)]

    def _apply_builtin(self, name, args, kwargs, st, line):
        const_args = [a.value for a in args if _const(a)]
        all_const = len(const_args) == len(args)
        if name == "range" and all_const:
            try:
                return [(st, Const(tuple(range(*const_args))))]
            except Exception:
                return [(st, UNKNOWN)]
        if name == "len":
            if all_const and args:
                try:
                    return [(st, Const(len(const_args[0])))]
                except Exception:
                    return [(st, UNKNOWN)]
            if args and isinstance(args[0], TupleVal):
                return [(st, Const(len(args[0].items)))]
            return [(st, UNKNOWN)]
        if name in ("tuple", "list", "sorted", "set", "min", "max", "sum",
                    "abs", "bool", "int", "str", "float") and all_const:
            import builtins

            try:
                return [(st, Const(getattr(builtins, name)(*const_args)))]
            except Exception:
                return [(st, UNKNOWN)]
        if name is not None and args and isinstance(args[0], RT):
            # unresolved helper taking rt: model as an opaque shared
            # library object (e.g. testing.T) so races on it are visible
            return [(st, self._new_obj("lib", name, line))]
        return [(st, UNKNOWN)]

    def _call_func(self, fn: FuncVal, args, st: State, line,
                   kwargs=None) -> List[Tuple[State, Any]]:
        if self._depth >= CALL_DEPTH_CAP:
            return [(st, UNKNOWN)]
        env = Env(parent=fn.env)
        node = fn.node
        if isinstance(node, ast.Lambda):
            params = node.args
            body_is_expr = True
        else:
            params = node.args
            body_is_expr = False
        names = [a.arg for a in params.args]
        bound = list(args)
        if fn.self_obj is not None:
            bound = [fn.self_obj] + bound
        defaults = params.defaults
        for i, pname in enumerate(names):
            if i < len(bound):
                env.bind(pname, bound[i])
            else:
                di = i - (len(names) - len(defaults))
                if 0 <= di < len(defaults):
                    try:
                        env.bind(pname,
                                 Const(ast.literal_eval(defaults[di])))
                    except (ValueError, SyntaxError):
                        env.bind(pname, UNKNOWN)
                else:
                    env.bind(pname, UNKNOWN)
        if kwargs:
            for k, v in kwargs.items():
                env.bind(k, v)

        prev_env = self._cur_env
        prev_retval = st.retval
        st.retval = None
        self._cur_env = env
        self._depth += 1
        try:
            if body_is_expr:
                results = self._eval(node.body, st)
            else:
                ends = self._exec_block(node.body, [st])
                results = []
                for e in ends:
                    value = e.retval if e.flow == "return" and \
                        e.retval is not None else Const(None)
                    if e.flow == "return":
                        e.flow = "next"
                    e.retval = prev_retval
                    results.append((e, value))
        finally:
            self._depth -= 1
            self._cur_env = prev_env
        return results

    # -- the rt.* API --------------------------------------------------

    def _apply_rt(self, name, args, kwargs, st: State, line
                  ) -> List[Tuple[State, Any]]:
        def kwname(default=""):
            v = kwargs.get("name")
            if v is not None and _const(v):
                return str(v.value)
            if args and _const(args[0]) and isinstance(args[0].value, str):
                return args[0].value
            return default

        if name in ("mutex", "rwmutex"):
            return [(st, self._new_obj(name, kwname(), line))]
        if name == "waitgroup":
            return [(st, self._new_obj("wg", kwname(), line))]
        if name == "cond":
            return [(st, self._new_obj("cond", kwname(), line))]
        if name == "once":
            return [(st, self._new_obj("once", kwname(), line))]
        if name in ("shared", "atomic_int", "atomic_value"):
            kind = "shared" if name == "shared" else "atomic"
            obj = self._new_obj(kind, kwname(), line)
            init = None
            if name == "shared" and len(args) >= 2:
                init = args[1]
            elif name != "shared" and args:
                init = args[0]
            obj.attrs["init"] = init
            return [(st, obj)]
        if name == "make_chan":
            obj = self._new_obj("chan", kwname(""), line)
            cap = args[0] if args else kwargs.get("capacity")
            obj.capacity = cap.value if _const(cap) and \
                isinstance(cap.value, int) else (0 if cap is None else None)
            if not obj.name:
                obj.name = f"chan@{line}"
            return [(st, obj)]
        if name == "nil_chan":
            obj = self._new_obj("chan", f"nil@{line}", line)
            obj.nil = True
            return [(st, obj)]
        if name == "select":
            arms = []
            for a in args:
                if isinstance(a, CaseVal):
                    arms.append((a.kind, a.chan))
            default = kwargs.get("default")
            has_default = _const(default) and bool(default.value)
            self._op(st, "select", None, line, arms=tuple(arms),
                     has_default=bool(has_default))
            return [(st, TupleVal((UNKNOWN, UNKNOWN, UNKNOWN)))]
        if name == "go":
            return self._spawn(args, kwargs, st, line)
        if name == "pipe":
            pr = self._new_obj("pipe_r", f"pipe_r@{line}", line)
            pw = self._new_obj("pipe_w", f"pipe_w@{line}", line)
            pr.peer, pw.peer = pw, pr
            return [(st, TupleVal((pr, pw)))]
        if name in ("with_cancel", "with_timeout"):
            ctx = self._new_obj("ctx", f"ctx@{line}", line)
            cancel = self._new_obj("cancel", f"cancel@{line}", line)
            if name == "with_timeout":
                cancel.auto_cancel = True
                cancel.cancel_called = True
            ctx.attrs["cancel"] = cancel
            parent = args[0] if args else None
            if isinstance(parent, AbstractObj):
                ctx.values.update(parent.values)
                parent.attrs["used_as_parent"] = True
            return [(st, TupleVal((ctx, cancel)))]
        if name == "with_value":
            ctx = self._new_obj("ctx", f"ctx@{line}", line)
            parent = args[0] if args else None
            if isinstance(parent, AbstractObj):
                ctx.values.update(parent.values)
                parent.attrs["used_as_parent"] = True
            if len(args) >= 3 and _const(args[1]):
                ctx.values[args[1].value] = args[2]
            return [(st, ctx)]
        if name == "background":
            return [(st, self._new_obj("ctx", "background", line))]
        if name in ("new_timer", "after"):
            dur = args[0] if args else None
            chan = self._new_obj("chan", f"timer@{line}", line)
            chan.capacity = 1
            chan.is_timer = True
            chan.timer_duration = dur.value if _const(dur) else None
            self._op(st, "timer_new", chan, line,
                     delta=int(bool(chan.timer_duration)) if _const(dur)
                     else None)
            if name == "after":
                return [(st, chan)]
            timer = self._new_obj("timer", f"timer@{line}", line)
            timer.attrs["c"] = chan
            return [(st, timer)]
        if name == "new_ticker":
            chan = self._new_obj("chan", f"ticker@{line}", line)
            chan.capacity = 1
            chan.is_ticker = True
            ticker = self._new_obj("ticker", f"ticker@{line}", line)
            ticker.attrs["c"] = chan
            return [(st, ticker)]
        if name in ("sleep", "gosched"):
            return [(st, Const(None))]
        if name == "now":
            return [(st, UNKNOWN)]
        return [(st, UNKNOWN)]

    def _spawn(self, args, kwargs, st: State, line
               ) -> List[Tuple[State, Any]]:
        if not args:
            return [(st, Const(None))]
        fn = args[0]
        fn_args = tuple(args[1:])
        if not isinstance(fn, FuncVal):
            return [(st, Const(None))]
        occurrence = sum(1 for op in st.ops
                         if op.kind == "spawn" and op.line == line)
        fingerprint = ",".join(
            repr(a.value) if _const(a) else "?" for a in fn_args)
        key = f"{fn.name}@{line}#{occurrence}({fingerprint})"
        namearg = kwargs.get("name")
        display = namearg.value if _const(namearg) and \
            isinstance(namearg.value, str) else fn.name
        self._op(st, "spawn", None, line, detail=key)
        if key not in self._spawned_keys:
            self._spawned_keys.add(key)
            self._pending.append((key, fn, fn_args, self._cur_thread_key,
                                  self._mult(st), display))
        return [(st, Const(None))]

    # -- object method ops --------------------------------------------

    _WRITE_LIB = ("errorf", "error", "fatal", "fatalf", "log", "logf",
                  "fail", "skip", "append", "add", "write", "set")

    def _apply_method(self, obj: AbstractObj, meth, args, kwargs,
                      st: State, line) -> List[Tuple[State, Any]]:
        kind = obj.kind
        if kind in ("mutex", "rwmutex"):
            if meth == "lock":
                self._acquire(st, obj, "w", line)
            elif meth == "unlock":
                self._release(st, obj, "w", line)
            elif meth == "rlock":
                self._acquire(st, obj, "r", line)
            elif meth == "runlock":
                self._release(st, obj, "r", line)
            elif meth == "rlocker":
                return [(st, RLocker(obj))]
            return [(st, Const(None))]
        if kind == "chan":
            return self._apply_chan(obj, meth, args, st, line)
        if kind == "wg":
            if meth == "add":
                delta = args[0].value if args and _const(args[0]) and \
                    isinstance(args[0].value, int) else None
                self._op(st, "wg_add", obj, line, delta=delta)
            elif meth == "done":
                self._op(st, "wg_done", obj, line)
            elif meth == "wait":
                self._op(st, "wg_wait", obj, line)
            return [(st, Const(None))]
        if kind in ("shared", "atomic"):
            if meth == "load":
                self._op(st, "load", obj, line)
                return [(st, UNKNOWN)]
            if meth == "store":
                detail = "none" if args and _const(args[0]) and \
                    args[0].value is None else "value"
                self._op(st, "store", obj, line, detail=detail)
                return [(st, Const(None))]
            if meth in ("add", "incr", "update"):
                self._op(st, "rmw", obj, line)
                return [(st, UNKNOWN)]
            if meth in ("peek", "poke"):
                init = obj.attrs.get("init")
                return [(st, init if meth == "peek" and init is not None
                         else UNKNOWN)]
            return [(st, UNKNOWN)]
        if kind == "cond":
            if meth in ("wait", "signal", "broadcast"):
                self._op(st, f"cond_{meth}", obj, line)
            return [(st, Const(None))]
        if kind == "once":
            if meth == "do" and args:
                st.once_depth += 1
                try:
                    if isinstance(args[0], FuncVal):
                        results = self._call_func(args[0], [], st, line)
                    elif isinstance(args[0], BoundMethod):
                        results = self._apply_method(
                            args[0].obj, args[0].name, [], {}, st, line)
                    else:
                        results = [(st, UNKNOWN)]
                finally:
                    for s, _ in results:
                        s.once_depth = max(0, s.once_depth - 1)
                return [(s, Const(None)) for s, _ in results]
            return [(st, Const(None))]
        if kind in ("pipe_r", "pipe_w"):
            table = {"read": "pipe_read", "write": "pipe_write",
                     "close": "pipe_close"}
            if meth in table:
                self._op(st, table[meth], obj, line)
            return [(st, UNKNOWN if meth == "read" else Const(None))]
        if kind == "ctx":
            if meth == "done":
                if "done" not in obj.attrs:
                    chan = self._new_obj("chan", f"{obj.name}.done", line)
                    chan.capacity = 0
                    chan.is_done = True
                    obj.attrs["done"] = chan
                return [(st, obj.attrs["done"])]
            if meth == "value":
                if args and _const(args[0]):
                    return [(st, obj.values.get(args[0].value, UNKNOWN))]
                return [(st, UNKNOWN)]
            return [(st, UNKNOWN)]
        if kind == "cancel":
            obj.cancel_called = True
            self._op(st, "cancel", obj, line)
            return [(st, Const(None))]
        if kind in ("timer", "ticker"):
            return [(st, Const(None))]
        if kind == "lib":
            self._op(st, "lib_use", obj, line, detail=meth)
            return [(st, UNKNOWN)]
        if kind == "instance":
            member = self._getattr(obj, meth)
            if isinstance(member, FuncVal):
                return self._call_func(member, args, st, line, kwargs)
            if isinstance(member, AbstractObj):
                return [(st, member)]
            return [(st, UNKNOWN)]
        return [(st, UNKNOWN)]

    def _apply_chan(self, obj: AbstractObj, meth, args, st: State, line
                    ) -> List[Tuple[State, Any]]:
        if meth == "send":
            self._op(st, "send", obj, line)
            if args:
                self._chan_values.setdefault(obj.oid, []).append(args[0])
            return [(st, Const(None))]
        if meth in ("recv", "recv_ok"):
            self._op(st, meth, obj, line)
            sent = self._chan_values.get(obj.oid, [])
            idx = st.recv_idx.get(obj.oid, 0)
            st.recv_idx[obj.oid] = idx + 1
            val = sent[idx] if idx < len(sent) else UNKNOWN
            if meth == "recv_ok":
                return [(st, TupleVal((val, UNKNOWN)))]
            return [(st, val)]
        if meth in ("try_send", "try_recv"):
            self._op(st, meth, obj, line, blocking=False)
            if meth == "try_send" and args:
                self._chan_values.setdefault(obj.oid, []).append(args[0])
            return [(st, UNKNOWN)]
        if meth == "close":
            self._op(st, "close", obj, line)
            return [(st, Const(None))]
        if meth == "cap" or meth == "len":
            return [(st, UNKNOWN)]
        return [(st, UNKNOWN)]

    # current environment / thread key are tracked explicitly because the
    # statement and expression helpers all need them
    _cur_env: Env = Env()
    _cur_thread_key: str = "main"


def build_model(kernel_cls, variant: str = "buggy") -> ProgramModel:
    """Public entry: interpret one kernel variant into a ProgramModel.

    The class node comes from the source model (:mod:`.source`), which
    parses each module file once, so a fresh interpreter per call costs
    only a walk over the top level of the class body.
    """
    model = StaticInterp(kernel_cls).analyze(variant)
    model.target = getattr(kernel_cls, "meta", None) and \
        f"{kernel_cls.meta.kernel_id} ({variant})" or variant
    return model
