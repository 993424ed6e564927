"""Vector fields from a small arithmetic expression language.

A field over R^n is written as n expressions separated by ';' or newlines,
using variables x1..xn, infix + - * /, unary minus, ^ with a non-negative
integer literal exponent, and the functions sin, cos, exp, tanh, sqrt
(see README for the full grammar). Parsed trees are immutable; partial
derivatives are built symbolically with constant folding and cached per
field, so Jacobians are exact up to floating-point rounding.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DimensionError, DomainError, DslError

FUNCTIONS = ("sin", "cos", "exp", "tanh", "sqrt")

# Deepest nesting the parser takes, counted two ways: '(', function calls
# and unary signs in the source (the parser recurses on them), and the
# height of each component's tree (long chains of binary operators nest
# there). A derivative tree is at most about three times as high, so both
# the compiled evaluators and the recursive tree walks stay well inside
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


def _compile(rows):
    """Compile expression rows (row i holds component i's expressions) to
    one function of a list of n floats: the tuple of all their values in
    row-major order. The code mirrors the tree structure exactly (fully
    parenthesized), so it performs the same float operations in the same
    order as eval_expr; where those raise, the tree walk raises the
    DomainError. The `try` sits inside the generated function so that an
    evaluation stays one call. A folded constant may be inf or nan."""
    body = ", ".join(_py_src(e) for row in rows for e in row)
    scope = {"math": math, "inf": math.inf, "nan": math.nan,
             "walk": _walk_rows, "rows": rows}
    exec("def evaluate(x):\n"
         "    try:\n"
         f"        return ({body},)\n"
         "    except (ZeroDivisionError, ValueError, OverflowError):\n"
         "        pass\n"
         "    return walk(rows, x)\n", scope)
    return scope["evaluate"]


def _py_src(e):
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Var):
        return f"x[{e.index - 1}]"
    if isinstance(e, Unary):
        inner = _py_src(e.arg)
        if e.op == "neg":
            return f"(-{inner})"
        return f"math.{e.op}({inner})"
    if isinstance(e, Binary):
        sym = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[e.op]
        return f"({_py_src(e.left)} {sym} {_py_src(e.right)})"
    if isinstance(e, Power):
        return f"({_py_src(e.base)} ** {e.exponent})"
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

    Immutable after construction; the symbolic Jacobian, the compiled
    evaluators and the negated field are memoized on first use.
    """

    def __init__(self, dimension: int, components):
        components = tuple(components)
        if dimension < 1:
            raise DimensionError(f"dimension must be >= 1, got {dimension}")
        if len(components) != dimension:
            raise DimensionError(
                f"expected {dimension} components, got {len(components)}")
        self.dimension = dimension
        self.components = components
        self._jac_exprs = None
        self._eval_fn = None
        self._jac_fn = None
        self._negated = None

    def jacobian_exprs(self):
        """n x n grid of partial-derivative trees, built once."""
        if self._jac_exprs is None:
            self._jac_exprs = tuple(
                tuple(diff_expr(c, l + 1) for l in range(self.dimension))
                for c in self.components
            )
        return self._jac_exprs

    def evaluator(self):
        """Compiled map from a list of n floats to the tuple of the n
        component values, built once. Where a value leaves its domain it
        raises the DomainError that names the component."""
        if self._eval_fn is None:
            self._eval_fn = _compile([(c,) for c in self.components])
        return self._eval_fn

    def jacobian_evaluator(self):
        """Compiled map from a list of n floats to the n*n Jacobian entries
        in row-major order, built once; it raises like evaluator()."""
        if self._jac_fn is None:
            self._jac_fn = _compile(self.jacobian_exprs())
        return self._jac_fn

    def negated(self) -> "VectorField":
        """The field -V, built once."""
        if self._negated is None:
            self._negated = VectorField(
                self.dimension, tuple(_neg(c) for c in self.components))
        return self._negated

    def __repr__(self):
        return f"VectorField({self.dimension}, '{unparse_field(self)}')"


def parse_field(source: str, dimension: int) -> VectorField:
    """Parse a semicolon/newline-separated component list into a field."""
    if dimension < 1:
        raise DimensionError(f"dimension must be >= 1, got {dimension}")
    parser = _Parser(source, dimension)
    comps = parser.parse_components()
    if len(comps) != dimension:
        raise DslError(
            f"expected {dimension} components, got {len(comps)}")
    return VectorField(dimension, comps)


def unparse_field(field: VectorField) -> str:
    return "; ".join(unparse_expr(c) for c in field.components)


def as_point(field: VectorField, x) -> np.ndarray:
    """x as a float array of shape (n,); DimensionError for any other shape."""
    x = np.asarray(x, dtype=float)
    if x.shape != (field.dimension,):
        raise DimensionError(
            f"point has shape {x.shape}, field dimension is {field.dimension}")
    return x


def eval_field(field: VectorField, x) -> np.ndarray:
    """Evaluate all components at x, returning a length-n vector."""
    # plain Python floats: numpy scalars would turn div-by-zero and
    # sqrt(negative) into warnings instead of exceptions
    return np.array(field.evaluator()(as_point(field, x).tolist()),
                    dtype=float)


def jacobian_field(field: VectorField, x) -> np.ndarray:
    """Exact Jacobian matrix at x; entry (i, l) is dV_i/dx_l."""
    n = field.dimension
    entries = field.jacobian_evaluator()(as_point(field, x).tolist())
    return np.array(entries, dtype=float).reshape(n, n)


def _walk_rows(rows, x) -> tuple:
    """Re-walk the trees after compiled code raised: the values of `rows`
    (row i holds component i's expressions) in row-major order, or the
    DomainError of the offending expression tagged with its component."""
    out = []
    for i, row in enumerate(rows):
        for e in row:
            try:
                out.append(eval_expr(e, x))
            except DomainError as err:
                err.component = i + 1
                raise
    return tuple(out)
