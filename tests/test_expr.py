import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcycle import (DimensionError, DomainError, DslError, StepLimitError,
                    check_regularity, eval_field, find_stasis,
                    integrate_flow, jacobian_field, load_scenario,
                    parse_field, sweep_delta, unparse_field)
from kcycle import expr
from kcycle.expr import (MAX_DEPTH, Binary, Const, Power, Unary, Var,
                         VectorField, diff_expr, eval_expr, unparse_expr)

from conftest import scenario_path
from oracles import central_fd_jacobian


def test_parse_rotation_field():
    f = parse_field("x2; -x1", 2)
    assert np.allclose(eval_field(f, [1.0, 0.0]), [0.0, -1.0])


def test_parse_scalar_affine():
    f = parse_field("1 - x1", 1)
    assert eval_field(f, [0.25])[0] == 0.75


def test_parse_newline_separated():
    f = parse_field("x2\n-x1", 2)
    assert np.allclose(eval_field(f, [0.0, 2.0]), [2.0, 0.0])


def test_trailing_operator_is_syntax_error():
    with pytest.raises(DslError) as err:
        parse_field("x1 +", 1)
    assert err.value.column is not None


def test_error_reports_position():
    with pytest.raises(DslError, match=r"line 1, column 6"):
        parse_field("x1 + $", 1)


def test_wrong_component_count():
    with pytest.raises(DslError, match="expected 2 components"):
        parse_field("x1", 2)


def test_variable_index_out_of_range():
    with pytest.raises(DslError, match="x3 out of range"):
        parse_field("x1 + x3", 2)
    with pytest.raises(DslError, match="x0 out of range"):
        parse_field("x0", 1)


def test_non_integer_exponent():
    with pytest.raises(DslError, match="non-negative integer"):
        parse_field("x1^2.5", 1)
    with pytest.raises(DslError, match="non-negative integer"):
        parse_field("x1^-2", 1)


def test_unknown_identifier():
    with pytest.raises(DslError, match="unknown identifier 'foo'"):
        parse_field("foo(x1)", 1)


# sources nested `depth` levels deep, in the parser (parentheses, calls,
# signs) or in the tree (operator chains); a quotient's derivative nests
# the divisor's derivative three levels down, the steepest growth of any
# rule, so the quotient trees are the hardest to compile at the limit
NESTED = {
    "parentheses": lambda d: "(" * d + "x1 + 1" + ")" * d,
    "function-calls": lambda d: "sin(" * d + "x1" + ")" * d,
    "unary-signs": lambda d: "-(" * (d // 2) + "x1" + ")" * (d // 2),
    "operator-chain": lambda d: " / ".join(["(x1 + 2)"] * d),
    "quotients": lambda d: "x1 / (" * (d - 2) + "x1 + 2" + ")" * (d - 2),
    "root-quotients": lambda d: ("x1 / sqrt(" * ((d - 2) // 3) + "x1 + 2"
                                 + ")^2" * ((d - 2) // 3)),
}


@pytest.mark.parametrize("kind", NESTED)
def test_nesting_within_limit_compiles(kind):
    f = parse_field(NESTED[kind](MAX_DEPTH - 1), 1)
    assert np.all(np.isfinite(jacobian_field(f, [0.3])))
    assert np.all(np.isfinite(eval_field(f, [0.3])))


@pytest.mark.parametrize("kind", NESTED)
@pytest.mark.parametrize("depth", [MAX_DEPTH + 2, 3000])
def test_nesting_past_limit_is_dsl_error(kind, depth):
    with pytest.raises(DslError, match=f"deeper than {MAX_DEPTH} levels"):
        parse_field(NESTED[kind](depth), 1)


def test_eval_division_by_zero_identifies_component():
    # the compiled writer raises the public function's DomainError
    f = parse_field("x1; 1/x1", 2)
    write = expr.family_writer((f,), "values")[1]
    for evaluate in (partial(eval_field, f),
                     lambda x: write([x], np.empty(2))):
        with pytest.raises(DomainError) as err:
            evaluate([0.0, 1.0])
        assert err.value.component == 2
        assert str(err.value) == "component 2: division by zero in '1.0 / x1'"


def test_jacobian_domain_error_identifies_component():
    f = parse_field("x2; sqrt(x1)", 2)
    write = expr.family_writer((f,), "jacobian")[1]
    for evaluate in (partial(jacobian_field, f),
                     lambda x: write([x], None, np.empty(4))):
        with pytest.raises(DomainError) as err:
            evaluate([0.0, 1.0])
        assert err.value.component == 2
        assert str(err.value) == \
            "component 2: division by zero in '1.0 / (2.0 * sqrt(x1))'"


def test_folded_infinite_constant_evaluates():
    # d/dx1 folds 1e300 * 1e300 into the constant inf; the sensitivity
    # leg's every step is non-finite, so its step size collapses
    f = parse_field("1e300*x1*1e300", 1)
    assert jacobian_field(f, [1.0]).tolist() == [[math.inf]]
    with pytest.raises(StepLimitError) as err:
        integrate_flow(f, [1.0], 0.5)
    assert str(err.value) == "step size collapsed at t=0"


def test_eval_sqrt_negative():
    f = parse_field("sqrt(x1)", 1)
    with pytest.raises(DomainError):
        eval_field(f, [-1.0])


def test_eval_wrong_dimension():
    f = parse_field("x1", 1)
    with pytest.raises(DimensionError):
        eval_field(f, [1.0, 2.0])


def test_jacobian_rotation_is_constant():
    f = parse_field("x2; -x1", 2)
    for x in ([0.0, 0.0], [3.0, -1.5]):
        assert np.allclose(jacobian_field(f, x), [[0.0, 1.0], [-1.0, 0.0]])


def test_jacobian_scalar_affine():
    f = parse_field("1 - x1", 1)
    assert jacobian_field(f, [123.0])[0, 0] == -1.0


def test_jacobian_mixed_field_against_fd():
    f = parse_field("sin(x1)*x2; x1^2", 2)
    x = np.array([0.0, 3.0])
    assert np.allclose(jacobian_field(f, x), [[3.0, 0.0], [0.0, 0.0]])
    fd = central_fd_jacobian(lambda p: eval_field(f, p), x, h=1e-5)
    assert np.max(np.abs(jacobian_field(f, x) - fd)) < 1e-7


def test_jacobian_matches_fd_on_corpus(corpus):
    rng = np.random.default_rng(42)
    for scn in corpus.values():
        for field in scn.fields:
            n = field.dimension
            for _ in range(100):
                x = rng.uniform(-2.0, 2.0, size=n)
                jac = jacobian_field(field, x)
                fd = central_fd_jacobian(lambda p: eval_field(field, p), x,
                                         h=1e-5)
                tol = 1e-7 * (1.0 + np.abs(jac))
                assert np.all(np.abs(jac - fd) <= tol), scn.name


def test_roundtrip_on_corpus_sources(corpus):
    for scn in corpus.values():
        for src in scn.field_sources:
            first = parse_field(src, scn.dimension)
            again = parse_field(unparse_field(first), scn.dimension)
            assert first.components == again.components


# --- randomized AST properties -------------------------------------------

def _exprs(max_depth=6, dimension=3):
    # constants are non-negative: that is the parser's image (negative
    # values appear as explicit neg nodes), so round trips are exact
    leaves = st.one_of(
        st.integers(min_value=1, max_value=dimension).map(Var),
        st.floats(min_value=0.0, max_value=4.0,
                  allow_nan=False).map(lambda v: Const(float(v))),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(["neg", "sin", "cos", "tanh"]),
                      children).map(lambda t: Unary(*t)),
            st.tuples(st.sampled_from(["add", "sub", "mul"]), children,
                      children).map(lambda t: Binary(*t)),
            st.tuples(children,
                      st.integers(min_value=0, max_value=3)).map(
                          lambda t: Power(*t)),
        )

    return st.recursive(leaves, extend, max_leaves=2 ** max_depth)


@given(_exprs())
@settings(max_examples=200, deadline=None)
def test_unparse_parse_roundtrip(expr):
    text = unparse_expr(expr)
    field = parse_field(f"{text}; x2; x3", 3)
    assert field.components[0] == expr


@given(_exprs(), _exprs(), st.integers(min_value=1, max_value=3))
@settings(max_examples=150, deadline=None)
def test_sum_rule_node_by_node(u, v, index):
    x = np.array([0.3, -0.7, 1.1])
    lhs = eval_expr(diff_expr(Binary("add", u, v), index), x)
    rhs = eval_expr(diff_expr(u, index), x) + eval_expr(diff_expr(v, index), x)
    assert lhs == pytest.approx(rhs, abs=1e-9, rel=1e-9)


@given(_exprs(), _exprs(), st.integers(min_value=1, max_value=3))
@settings(max_examples=150, deadline=None)
def test_product_rule_node_by_node(u, v, index):
    x = np.array([0.3, -0.7, 1.1])
    lhs = eval_expr(diff_expr(Binary("mul", u, v), index), x)
    rhs = (eval_expr(diff_expr(u, index), x) * eval_expr(v, x)
           + eval_expr(u, x) * eval_expr(diff_expr(v, index), x))
    assert lhs == pytest.approx(rhs, abs=1e-6, rel=1e-6)


# every node kind, with the constants folding makes too: negative values,
# signed zeros, values at the ends of the float range, inf and NaNs of
# both signs
_WRITER_CONSTANTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -2.0, 1e300, -1e-300, 1e-200,
                     math.inf, math.nan, -math.nan]),
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False))


def _writer_trees(dimension):
    leaves = st.one_of(
        st.integers(min_value=1, max_value=dimension).map(Var),
        _WRITER_CONSTANTS.map(Const))

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(["neg", "sin", "cos", "exp", "tanh",
                                       "sqrt"]),
                      children).map(lambda t: Unary(*t)),
            st.tuples(st.sampled_from(["add", "sub", "mul", "div"]),
                      children, children).map(lambda t: Binary(*t)),
            st.tuples(children,
                      st.integers(min_value=0, max_value=9)).map(
                          lambda t: Power(*t)))

    return st.recursive(leaves, extend, max_leaves=6)


_WRITER_TREES = {n: _writer_trees(n) for n in (1, 2, 3)}
_COORDINATES = st.one_of(st.sampled_from([0.0, -0.0]),
                         st.floats(min_value=-50.0, max_value=50.0))


@st.composite
def _families(draw):
    """(fields, points): k <= 4 fields of one dimension n <= 3 with
    random trees, and a point per leg."""
    k = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=3))
    fields = [VectorField(n, [draw(_WRITER_TREES[n]) for _ in range(n)])
              for _ in range(k)]
    points = [[draw(_COORDINATES) for _ in range(n)] for _ in range(k)]
    return fields, points


def _walk(rows, x):
    """The bytes of the tree walk of the (component index, tree) rows at
    x, or the (text, component) of the DomainError of the first row that
    raises, tagged with its component."""
    values = []
    for i, e in rows:
        try:
            values.append(eval_expr(e, x))
        except DomainError as err:
            err.component = i + 1
            return str(err), i + 1
    return _bits(values)


def _bits(values):
    return np.array(values, dtype=float).tobytes()


def _outcome(call, *args):
    """The bytes of call(*args), or the (text, component, leg) of the
    DomainError it raises."""
    try:
        return call(*args).tobytes()
    except DomainError as err:
        return str(err), err.component, err.leg


def _first_raise(walks):
    """The (text, component, leg j) of the first of the walks (walk, leg
    j) that raised, or None."""
    return next(((*w, j) for w, j in walks if not isinstance(w, bytes)),
                None)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_families())
def test_compiled_writers_are_the_tree_walk_bit_for_bit(family):
    # one-leg and family calls of eval_field and jacobian_field, and the
    # family writer of flow's sensitivity stages, write the walk's values,
    # signed zeros and NaNs included, and a family call is its k one-leg
    # calls; where the walk raises they raise its DomainError, with its
    # component and its leg (0 for one leg, j for leg j of a family)
    fields, points = family
    k, n = len(fields), fields[0].dimension
    values = [_walk(enumerate(f.components), x)
              for f, x in zip(fields, points)]
    jacobians = [_walk([(i, e) for i, row in enumerate(f.jacobian_exprs)
                        for e in row], x) for f, x in zip(fields, points)]
    for call, walks in ((eval_field, values), (jacobian_field, jacobians)):
        legs = [_outcome(call, f, x) for f, x in zip(fields, points)]
        assert legs == [w if isinstance(w, bytes) else (*w, 0)
                        for w in walks]
        assert _outcome(call, fields, points) == (
            _first_raise(zip(walks, range(k))) or b"".join(legs))
    constant, write = expr.family_writer(tuple(fields), "sensitivity")
    m = n + n * n
    out, jac = np.full(k * m, np.pi), constant.copy()
    try:
        write(points, out, jac)
        got = None
    except DomainError as err:
        got = str(err), err.component, err.leg
    # a leg's values come before its Jacobian entries
    assert got == _first_raise((w, j) for j, pair in
                               enumerate(zip(values, jacobians))
                               for w in pair)
    if got is None:
        rows = out.reshape(k, m)
        assert rows[:, :n].tobytes() == b"".join(values)
        assert rows[:, n:].tobytes() == np.full((k, m - n),
                                                np.pi).tobytes()
        assert jac.tobytes() == b"".join(jacobians)


def _chain(depth, leaf):
    for _ in range(depth):
        leaf = Unary("neg", leaf)
    return leaf


@pytest.mark.parametrize("dimension, components, text", [
    # x0 was evaluated as x2 (the last coordinate), while its Jacobian
    # read 0, and x2 of a 1-D field ended in an IndexError
    (2, [Var(0), Const(1.0)], "component 1: variable index 0 is not a "
                              "whole number in 1..2"),
    (1, [Var(2)], "component 1: variable index 2 is not a whole number in "
                  "1..1"),
    (2, [Var(1), Binary("mul", Var(2), Unary("sin", Var(3)))],
     "component 2: variable index 3 is not a whole number in 1..2"),
    (1, [Var(1.0)], "component 1: variable index 1.0 is not a whole number "
                    "in 1..1"),
    (1, [Var(True)], "component 1: variable index True is not a whole "
                     "number in 1..1"),
    (1, [Binary("add", Var(1), 2.0)], "component 1: 2.0 is not an "
                                      "expression node"),
    (2, [Var(1), "x1"], "component 2: 'x1' is not an expression node"),
    # checked without recursion, however deep the tree
    (1, [_chain(5000, Var(2))], "component 1: variable index 2 is not a "
                                "whole number in 1..1"),
], ids=["x0", "x2-of-1", "deep-x3", "float-index", "bool-index",
        "float-child", "string-component", "chain-5000"])
def test_a_field_refuses_a_tree_it_cannot_evaluate(dimension, components,
                                                   text):
    with pytest.raises(DimensionError) as err:
        VectorField(dimension, components)
    assert str(err.value) == text


def test_a_numpy_integer_is_a_variable_index():
    f = VectorField(2, [Var(np.int64(2)), Const(1.0)])
    assert eval_field(f, [3.0, 7.0]).tolist() == [7.0, 1.0]
    assert jacobian_field(f, [3.0, 7.0]).tolist() == [[0.0, 1.0],
                                                      [0.0, 0.0]]


@pytest.mark.parametrize("name, writers", [
    ("pair_1d", 2), ("triad_2d", 2), ("linear_2d_a", 2), ("linear_3d_b", 2),
    ("trig_3d", 3)])
def test_a_stasis_and_sweep_run_compiles_one_writer_per_kind(
        name, writers, monkeypatch):
    # the family's writers of values (stasis residuals and endpoint
    # stages), Jacobian entries (none vary on an affine family) and both
    # (sensitivity stages), each compiled once for the whole run
    compiled = []
    compile_rows = expr._compile

    def counting_compile(legs, n):
        compiled.append(len(legs))
        return compile_rows(legs, n)

    monkeypatch.setattr(expr, "_compile", counting_compile)
    scn = load_scenario(scenario_path(name))
    sp = find_stasis(scn.fields, scn.weights, scn.guess_point(),
                     scn.stasis_tol)
    check_regularity(scn.fields, sp.weights, sp.x0)
    sweep_delta(scn.fields, sp.weights, sp.x0, scn.sweep.delta_max,
                scn.sweep.steps, scn.cycle_tol, scn.integrator)
    assert compiled == [scn.k] * writers


def test_diff_known_forms():
    f = parse_field("exp(x1)*cos(x1)", 1)
    x = np.array([0.4])
    want = math.exp(0.4) * (math.cos(0.4) - math.sin(0.4))
    assert jacobian_field(f, x)[0, 0] == pytest.approx(want, rel=1e-14)

    g = parse_field("sqrt(x1)", 1)
    assert jacobian_field(g, [4.0])[0, 0] == pytest.approx(0.25, rel=1e-14)

    h = parse_field("tanh(x1)", 1)
    assert jacobian_field(h, [0.3])[0, 0] == pytest.approx(
        1.0 - math.tanh(0.3) ** 2, rel=1e-14)

    q = parse_field("x1/x2; x2", 2)
    assert np.allclose(jacobian_field(q, [3.0, 2.0]),
                       [[0.5, -0.75], [0.0, 1.0]])
