"""Vector fields from a small arithmetic expression language.

A field over R^n is written as n expressions separated by ';' or newlines,
using variables x1..xn, infix + - * /, unary minus, ^ with a non-negative
integer literal exponent, and the functions sin, cos, exp, tanh, sqrt
(see README for the full grammar). Parsed trees are immutable; partial
derivatives are built symbolically with constant folding and cached per
field, so Jacobians are exact up to floating-point rounding.

Evaluation runs compiled writers, all made by one code generator,
`_compile`, for a family of legs: k fields of one dimension, each leg
with its own point. A writer write(x, out, jac) unpacks every leg's
coordinates into local names, then assigns each value straight into its
slot of the caller's buffers, with the float operations of the tree walk
`eval_expr`, which it falls back to for the DomainError when those
operations raise; the error then names the component and the leg.
`family_writer` keeps one writer per family and kind (values, Jacobian
entries, or both for flow's sensitivity stages) with the family's first
field; `eval_field`, `jacobian_field` and `flow` all call it, and a leg
is the family of one. A Jacobian entry whose tree holds no variable is
evaluated once, by the walk, and returned with the writer as a constant
for the caller to write once per buffer (`flow` writes it once per
workspace); an entry whose evaluation raises stays in the per-call
writer, so its error surfaces at every evaluation.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .errors import (DimensionError, DomainError, DslError, family,
                     point_array, whole_number)

FUNCTIONS = ("sin", "cos", "exp", "tanh", "sqrt")

# Deepest nesting the parser takes, counted two ways: '(', function calls
# and unary signs in the source (the parser recurses on them), and the
# height of each component's tree (long chains of binary operators nest
# there). A derivative tree is at most about three times as high, so both
# the compiled writers and the recursive tree walks stay well inside
# Python's parenthesis and recursion limits.
MAX_DEPTH = 60


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 1-based


@dataclass(frozen=True)
class Unary:
    op: str  # neg | sin | cos | exp | tanh | sqrt
    arg: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str  # add | sub | mul | div
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Power:
    base: "Expr"
    exponent: int  # non-negative


Expr = Union[Const, Var, Unary, Binary, Power]


# ---------------------------------------------------------------------------
# tokenizer / parser

_TOKEN_RE = re.compile(
    r"""
    (?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^();])
  | (?P<sep>\n)
  | (?P<ws>[ \t\r]+)
    """,
    re.VERBOSE,
)


def _line_col(source, offset):
    line = source.count("\n", 0, offset) + 1
    col = offset - (source.rfind("\n", 0, offset) + 1) + 1
    return line, col


def _err(source, offset, message):
    line, col = _line_col(source, offset)
    return DslError(message, offset=offset, line=line, column=col)


class _Parser:
    """Recursive-descent parser over a token list with positions."""

    def __init__(self, source, dimension):
        self.source = source
        self.dimension = dimension
        self.tokens = []  # (kind, text, offset); kind in num/name/op/sep
        pos = 0
        while pos < len(source):
            m = _TOKEN_RE.match(source, pos)
            if m is None:
                raise _err(source, pos, f"unexpected character {source[pos]!r}")
            kind = m.lastgroup
            if kind != "ws":
                text = ";" if kind == "sep" else m.group()
                self.tokens.append(("op" if kind == "sep" else kind, text, pos))
            pos = m.end()
        self.i = 0
        self.depth = 0

    def _nest(self, offset):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise _err(self.source, offset,
                       f"expression nested deeper than {MAX_DEPTH} levels")

    def _component(self):
        offset = self._peek()[2]
        expr = self.parse_expr()
        if _height(expr) > MAX_DEPTH:
            raise _err(self.source, offset,
                       f"expression tree deeper than {MAX_DEPTH} levels")
        return expr

    def _peek(self):
        if self.i < len(self.tokens):
            return self.tokens[self.i]
        return ("eof", "", len(self.source))

    def _next(self):
        tok = self._peek()
        self.i += 1
        return tok

    def _expect_op(self, text):
        kind, got, off = self._next()
        if kind != "op" or got != text:
            raise _err(self.source, off, f"expected '{text}'")

    def parse_components(self):
        comps = [self._component()]
        while True:
            kind, text, off = self._peek()
            if kind == "eof":
                break
            if kind == "op" and text == ";":
                while self._peek()[:2] == ("op", ";"):
                    self._next()
                if self._peek()[0] == "eof":
                    break
                comps.append(self._component())
            else:
                raise _err(self.source, off, f"unexpected token {text!r}")
        return comps

    def parse_expr(self):
        node = self.parse_term()
        while self._peek()[0] == "op" and self._peek()[1] in "+-":
            op = self._next()[1]
            rhs = self.parse_term()
            node = Binary("add" if op == "+" else "sub", node, rhs)
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self._peek()[0] == "op" and self._peek()[1] in "*/":
            op = self._next()[1]
            rhs = self.parse_factor()
            node = Binary("mul" if op == "*" else "div", node, rhs)
        return node

    def parse_factor(self):
        kind, text, off = self._peek()
        if kind == "op" and text in "+-":
            self._next()
            self._nest(off)
            inner = self.parse_power()
            self.depth -= 1
            return inner if text == "+" else Unary("neg", inner)
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self._peek()[:2] == ("op", "^"):
            self._next()
            kind, text, off = self._next()
            if kind != "num" or not text.isdigit():
                raise _err(self.source, off,
                           "exponent must be a non-negative integer literal")
            # a finite float has at most 309 digits, far below int()'s limit
            digits = text.lstrip("0") or "0"
            if len(digits) > 309 or not math.isfinite(float(digits)):
                raise _err(self.source, off,
                           f"exponent of {len(digits)} digits overflows")
            return Power(base, int(digits))
        return base

    def parse_atom(self):
        kind, text, off = self._next()
        if kind == "num":
            if not math.isfinite(float(text)):
                raise _err(self.source, off, f"number {text} overflows")
            return Const(float(text))
        if kind == "name":
            if re.fullmatch(r"x\d+", text):
                index = int(text[1:])
                if not 1 <= index <= self.dimension:
                    raise _err(self.source, off,
                               f"variable {text} out of range for dimension "
                               f"{self.dimension}")
                return Var(index)
            if text in FUNCTIONS:
                self._expect_op("(")
                self._nest(off)
                arg = self.parse_expr()
                self._expect_op(")")
                self.depth -= 1
                return Unary(text, arg)
            raise _err(self.source, off, f"unknown identifier {text!r}")
        if kind == "op" and text == "(":
            self._nest(off)
            inner = self.parse_expr()
            self._expect_op(")")
            self.depth -= 1
            return inner
        raise _err(self.source, off,
                   "expected a number, variable, function call, or '('"
                   if kind != "eof" else "unexpected end of expression")


def _height(e):
    """Levels of nodes in the tree e, found without recursion."""
    height = 0
    pending = [(e, 1)]
    while pending:
        node, level = pending.pop()
        height = max(height, level)
        if isinstance(node, Binary):
            pending += ((node.left, level + 1), (node.right, level + 1))
        elif isinstance(node, Unary):
            pending.append((node.arg, level + 1))
        elif isinstance(node, Power):
            pending.append((node.base, level + 1))
    return height


def _check_tree(e, component, n):
    """DimensionError naming the component unless every node of the tree e
    is an expression node and every variable index a whole number in
    1..n (the parser checks both as it reads the source); walked without
    recursion, as `_height` walks."""
    pending = [e]
    while pending:
        node = pending.pop()
        if isinstance(node, Binary):
            pending += (node.left, node.right)
        elif isinstance(node, Unary):
            pending.append(node.arg)
        elif isinstance(node, Power):
            pending.append(node.base)
        elif isinstance(node, Var):
            index = node.index
            whole = type(index) is int or (isinstance(index, numbers.Integral)
                                           and not isinstance(index, bool))
            if not (whole and 1 <= index <= n):
                raise DimensionError(
                    f"component {component}: variable index {index!r} is "
                    f"not a whole number in 1..{n}")
        elif not isinstance(node, Const):
            raise DimensionError(
                f"component {component}: {node!r} is not an expression node")


# ---------------------------------------------------------------------------
# unparsing

_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4}


def unparse_expr(e: Expr) -> str:
    """Render an expression; parse(unparse(e)) is structurally identical."""
    return _render(e, 0)


def _render(e, parent_level):
    if isinstance(e, Const):
        text = repr(e.value)
        if e.value < 0:  # negative literal acts like a unary-minus node
            return f"({text})" if parent_level > _PREC["neg"] else text
        return text
    if isinstance(e, Var):
        return f"x{e.index}"
    if isinstance(e, Unary):
        if e.op == "neg":
            inner = f"-{_render(e.arg, _PREC['pow'])}"
            return f"({inner})" if parent_level > _PREC["neg"] else inner
        return f"{e.op}({_render(e.arg, 0)})"
    if isinstance(e, Binary):
        level = _PREC[e.op]
        sym = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[e.op]
        # right side one level up: the grammar is left-associative
        text = f"{_render(e.left, level)} {sym} {_render(e.right, level + 1)}"
        return f"({text})" if parent_level > level else text
    if isinstance(e, Power):
        text = f"{_render(e.base, _PREC['pow'] + 1)}^{e.exponent}"
        return f"({text})" if parent_level > _PREC["pow"] else text
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# evaluation

def eval_expr(e: Expr, x) -> float:
    """Evaluate a single expression at point x (1-based variable indices)."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return float(x[e.index - 1])
    if isinstance(e, Unary):
        v = eval_expr(e.arg, x)
        if e.op == "neg":
            return -v
        if e.op == "sqrt" and v < 0.0:
            raise DomainError(f"sqrt of negative value {v!r}",
                              subexpression=unparse_expr(e))
        fn = getattr(math, e.op)
        try:
            return fn(v)
        except OverflowError:
            raise DomainError(f"{e.op} overflow at argument {v!r}",
                              subexpression=unparse_expr(e)) from None
        except ValueError:
            # math domain error, e.g. sin/cos of a non-finite argument
            raise DomainError(f"{e.op} undefined at argument {v!r}",
                              subexpression=unparse_expr(e)) from None
    if isinstance(e, Binary):
        a = eval_expr(e.left, x)
        b = eval_expr(e.right, x)
        if e.op == "add":
            return a + b
        if e.op == "sub":
            return a - b
        if e.op == "mul":
            return a * b
        if e.op == "div":
            if b == 0.0:
                raise DomainError("division by zero",
                                  subexpression=unparse_expr(e))
            return a / b
        raise ValueError(f"unknown binary op {e.op!r}")
    if isinstance(e, Power):
        a = eval_expr(e.base, x)
        try:
            return a ** e.exponent
        except OverflowError:
            raise DomainError(f"overflow in power {a!r}^{e.exponent}",
                              subexpression=unparse_expr(e)) from None
    raise TypeError(f"not an expression node: {e!r}")


def _constant_value(e):
    """The value of the tree e walked with no variables bound, or None
    where it reads one (the empty point raises IndexError) or leaves its
    domain."""
    try:
        return eval_expr(e, ())
    except (IndexError, DomainError):
        return None


def _compile(legs, n):
    """Compile a family's expression rows to one function
    write(x, out, jac=None), for x the list of the k legs' lists of n
    floats. legs[j] holds leg j's (component, buffer, slot, expression)
    entries, and write assigns each expression's value at leg j's point
    to out[slot] (buffer 0) or jac[slot] (buffer 1), in that order. write
    first unpacks each leg's coordinates into local names, which the
    expressions read. The code mirrors the tree structure exactly (fully
    parenthesized), so it performs the same float operations in the same
    order as eval_expr; where those raise, the tree walk raises the
    DomainError of the first entry, in write's order, that leaves its
    domain, tagged with its component and leg. The `try` sits inside the
    generated function so that an evaluation stays one call. A folded
    constant may be inf or nan."""
    names = [[f"x{j}_{l}" for l in range(n)] for j in range(len(legs))]
    target = ", ".join(f"[{', '.join(leg)}]" for leg in names)
    buffers = ("out", "jac")
    body = "".join(f"        {buffers[b]}[{slot}] = {_py_src(e, names[j])}\n"
                   for j, leg in enumerate(legs) for _, b, slot, e in leg)
    scope = {"math": math, "inf": math.inf, "nan": math.nan,
             "walk": _walk_legs, "legs": legs}
    exec("def write(x, out, jac=None):\n"
         f"    [{target}] = x\n"
         "    try:\n"
         f"{body}"
         "        return\n"
         "    except (ZeroDivisionError, ValueError, OverflowError):\n"
         "        pass\n"
         "    walk(legs, x, (out, jac))\n", scope)
    return scope["write"]


def _py_src(e, names):
    """Python source of the tree e, variable x<l> read as names[l - 1]. A
    constant with its sign bit set is parenthesized, since ** binds
    tighter than the sign ((-2.0) ** 2 is 4.0, -2.0 ** 2 is -4.0), and
    keeps that sign where repr drops it (a NaN's)."""
    if isinstance(e, Const):
        text = repr(e.value)
        if math.copysign(1.0, e.value) < 0.0:
            return f"(-{text.lstrip('-')})"
        return text
    if isinstance(e, Var):
        return names[e.index - 1]
    if isinstance(e, Unary):
        inner = _py_src(e.arg, names)
        if e.op == "neg":
            return f"(-{inner})"
        return f"math.{e.op}({inner})"
    if isinstance(e, Binary):
        sym = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[e.op]
        return (f"({_py_src(e.left, names)} {sym} "
                f"{_py_src(e.right, names)})")
    if isinstance(e, Power):
        return f"({_py_src(e.base, names)} ** {e.exponent})"
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# symbolic differentiation (constant folding only, no deeper simplification)

def _const(v):
    return Const(float(v))


_ZERO = Const(0.0)
_ONE = Const(1.0)


def _is_const(e, v=None):
    return isinstance(e, Const) and (v is None or e.value == v)


def _neg(a):
    if _is_const(a):
        return _const(-a.value)
    return Unary("neg", a)


def _add(a, b):
    if _is_const(a) and _is_const(b):
        return _const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Binary("add", a, b)


def _sub(a, b):
    if _is_const(a) and _is_const(b):
        return _const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _neg(b)
    return Binary("sub", a, b)


def _mul(a, b):
    if _is_const(a) and _is_const(b):
        return _const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Binary("mul", a, b)


def _div(a, b):
    if _is_const(a, 0.0):
        return _ZERO
    if _is_const(b, 1.0):
        return a
    return Binary("div", a, b)


def _pow(base, p):
    if p == 0:
        return _ONE
    if p == 1:
        return base
    return Power(base, p)


def diff_expr(e: Expr, index: int) -> Expr:
    """Exact partial derivative of e with respect to x<index>."""
    if isinstance(e, Const):
        return _ZERO
    if isinstance(e, Var):
        return _ONE if e.index == index else _ZERO
    if isinstance(e, Unary):
        du = diff_expr(e.arg, index)
        if e.op == "neg":
            return _neg(du)
        if e.op == "sin":
            return _mul(Unary("cos", e.arg), du)
        if e.op == "cos":
            return _neg(_mul(Unary("sin", e.arg), du))
        if e.op == "exp":
            return _mul(Unary("exp", e.arg), du)
        if e.op == "tanh":
            return _mul(_sub(_ONE, _pow(Unary("tanh", e.arg), 2)), du)
        if e.op == "sqrt":
            return _div(du, _mul(_const(2.0), Unary("sqrt", e.arg)))
        raise ValueError(f"unknown unary op {e.op!r}")
    if isinstance(e, Binary):
        da = diff_expr(e.left, index)
        db = diff_expr(e.right, index)
        if e.op == "add":
            return _add(da, db)
        if e.op == "sub":
            return _sub(da, db)
        if e.op == "mul":
            return _add(_mul(da, e.right), _mul(e.left, db))
        if e.op == "div":
            num = _sub(_mul(da, e.right), _mul(e.left, db))
            return _div(num, _pow(e.right, 2))
        raise ValueError(f"unknown binary op {e.op!r}")
    if isinstance(e, Power):
        db = diff_expr(e.base, index)
        if e.exponent == 0:
            return _ZERO
        return _mul(_mul(_const(e.exponent), _pow(e.base, e.exponent - 1)), db)
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# vector fields

class VectorField:
    """An R^n -> R^n map given by n expression trees.

    Immutable after construction; the symbolic Jacobian is a cached
    property, built on first read, and the compiled writers and flow
    workspaces of the families it leads are kept with it (`family_writer`,
    `flow._legs`). DimensionError
    names a component whose tree `_check_tree` refuses.
    """

    def __init__(self, dimension: int, components):
        components = tuple(components)
        dimension = whole_number(dimension, "dimension", 1)
        if len(components) != dimension:
            raise DimensionError(
                f"expected {dimension} components, got {len(components)}")
        for i, c in enumerate(components):
            _check_tree(c, i + 1, dimension)
        self.dimension = dimension
        self.components = components
        # kind, or (kind, *the other fields of a family) -> (constant, write)
        self._writers = {}
        # (sensitivity, *the other fields of a family) -> the idle
        # `flow._Workspace` of its legs
        self._workspaces = {}

    @cached_property
    def jacobian_exprs(self):
        """n x n grid of partial-derivative trees."""
        return tuple(
            tuple(diff_expr(c, l + 1) for l in range(self.dimension))
            for c in self.components
        )

    def __repr__(self):
        return f"VectorField({self.dimension}, '{unparse_field(self)}')"


def parse_field(source: str, dimension: int) -> VectorField:
    """Parse a semicolon/newline-separated component list into a field."""
    dimension = whole_number(dimension, "dimension", 1)
    comps = _Parser(source, dimension).parse_components()
    if len(comps) != dimension:
        raise DslError(
            f"expected {dimension} components, got {len(comps)}")
    return VectorField(dimension, comps)


def unparse_field(field: VectorField) -> str:
    return "; ".join(unparse_expr(c) for c in field.components)


def as_family(field, x, t=None):
    """(fields, points, times) of a call on one leg (a field, a point of
    shape (n,) and a time) or a family of legs (k fields of one dimension
    n, a (k, n) array of points and k times), checked by `errors.family`:
    fields is a tuple, and one leg the family of one, its point (1, n)."""
    if isinstance(field, VectorField):
        x = point_array(x, (field.dimension,), "x")[None]
        if t is None:
            return (field,), x, None
        field, t = (field,), [t]
    return tuple(field), *family(field, points=x, times=t)[1:]


def eval_field(field, x) -> np.ndarray:
    """The values of one leg, shape (n,), or of a family of legs, (k, n)
    with row j field j at point j, taken as `as_family` takes them; a
    DomainError names the component and the leg j (0 for one leg)."""
    fields, x, _ = as_family(field, x)
    out = np.empty(x.size)
    # plain Python floats: numpy scalars would turn div-by-zero and
    # sqrt(negative) into warnings instead of exceptions
    family_writer(fields, "values")[1](x.tolist(), out)
    return out if isinstance(field, VectorField) else out.reshape(x.shape)


def jacobian_field(field, x) -> np.ndarray:
    """The exact Jacobian, entry (i, l) dV_i/dx_l, of one leg, (n, n), or
    of each leg of a family, (k, n, n), taken as `eval_field` takes them."""
    fields, x, _ = as_family(field, x)
    n = fields[0].dimension
    constant, write = family_writer(fields, "jacobian")
    out = constant.copy()
    if write is not None:
        write(x.tolist(), None, out)
    return out.reshape(n, n) if isinstance(field, VectorField) else \
        out.reshape(-1, n, n)


def family_writer(fields, kind):
    """(constant, write) of the family of legs of the tuple `fields` (k
    fields of one dimension n) and `kind`, compiled on first use and kept
    with fields[0]. For x the list of the k legs' lists of n floats,
    write(x, out, jac) writes leg j's component i into out[j * n + i]
    ("values"; out[j * (n + n * n) + i], flow's augmented state, for
    "sensitivity") and each entry (i, l) of its Jacobian that varies with
    x into jac[(j * n + i) * n + l] ("jacobian", "sensitivity"). constant
    (None for "values") is the read-only flat k*n*n array of the other
    entries, 0 in these slots, for the caller to write once; write is None
    when no entry is left to it. A leg's values come before its Jacobian
    entries, and leg j's before leg j + 1's: a DomainError names the
    first entry in that order that leaves its domain, with its component
    and its leg j."""
    key = kind if len(fields) == 1 else (kind, *fields[1:])
    try:
        return fields[0]._writers[key]
    except KeyError:
        pass
    n = fields[0].dimension
    stride = n + n * n if kind == "sensitivity" else n
    constant = None if kind == "values" else np.zeros(len(fields) * n * n)
    legs = []
    for j, field in enumerate(fields):
        leg = [] if kind == "jacobian" else [
            (i, 0, j * stride + i, c) for i, c in enumerate(field.components)]
        if constant is not None:
            for i, row in enumerate(field.jacobian_exprs):
                for l, e in enumerate(row):
                    slot, value = (j * n + i) * n + l, _constant_value(e)
                    if value is None:
                        leg.append((i, 1, slot, e))
                    else:
                        constant[slot] = value
        legs.append(tuple(leg))
    if constant is not None:
        constant.flags.writeable = False
    write = _compile(tuple(legs), n) if any(legs) else None
    fields[0]._writers[key] = constant, write
    return constant, write


def _walk_legs(legs, points, outs):
    """Re-walk the trees after compiled code raised: write the values of
    `legs` (see `_compile`) at leg j's point points[j] into their slots of
    `outs`, or raise the DomainError of the offending expression tagged
    with its component and leg."""
    for j, (leg, x) in enumerate(zip(legs, points)):
        for i, b, slot, e in leg:
            try:
                outs[b][slot] = eval_expr(e, x)
            except DomainError as err:
                err.component, err.leg = i + 1, j
                raise
