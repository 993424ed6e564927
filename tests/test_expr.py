import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcycle import (DimensionError, DomainError, DslError, eval_field,
                    jacobian_field, parse_field, unparse_field)
from kcycle.expr import (MAX_DEPTH, Binary, Const, Power, Unary, Var,
                         diff_expr, eval_expr, unparse_expr)

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
    # the compiled evaluator raises the public function's DomainError
    f = parse_field("x1; 1/x1", 2)
    for evaluate in (partial(eval_field, f), f.evaluator()):
        with pytest.raises(DomainError) as err:
            evaluate([0.0, 1.0])
        assert err.value.component == 2
        assert str(err.value) == "component 2: division by zero in '1.0 / x1'"


def test_jacobian_domain_error_identifies_component():
    f = parse_field("x2; sqrt(x1)", 2)
    for evaluate in (partial(jacobian_field, f), f.jacobian_evaluator()):
        with pytest.raises(DomainError) as err:
            evaluate([0.0, 1.0])
        assert err.value.component == 2
        assert str(err.value) == \
            "component 2: division by zero in '1.0 / (2.0 * sqrt(x1))'"


def test_folded_infinite_constant_evaluates():
    # d/dx1 folds 1e300 * 1e300 into the constant inf
    f = parse_field("1e300*x1*1e300", 1)
    assert jacobian_field(f, [1.0]).tolist() == [[math.inf]]


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
