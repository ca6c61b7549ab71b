import cmath
import math
import operator
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normlab import (
    BranchError,
    DimensionMismatchError,
    EvaluationError,
    ExprSyntaxError,
    PoleError,
    affine_pullback,
    evaluate,
    evaluate_jet,
    parse,
    to_source,
)
from normlab.expr import (
    BRANCH,
    MAX_DEPTH,
    NONFINITE,
    OK,
    POLE,
    POLE_THRESHOLD,
    BinOp,
    Const,
    Func,
    HoloExpr,
    Neg,
    Pow,
    Var,
    evaluate_batch,
    status_error,
)


def test_parse_single_variable():
    expr = parse("z1", 1)
    assert expr.root == Var(1)


def test_parse_structure_sin_reciprocal():
    expr = parse("sin(1/(1-z1))", 1)
    assert isinstance(expr.root, Func) and expr.root.name == "sin"
    inner = expr.root.arg
    assert isinstance(inner, BinOp) and inner.op == "/"


def test_variable_index_exceeds_dimension():
    with pytest.raises(ExprSyntaxError):
        parse("z3", 2)


def test_unknown_identifier_and_syntax_errors():
    with pytest.raises(ExprSyntaxError):
        parse("foo(z1)", 1)
    with pytest.raises(ExprSyntaxError):
        parse("z1 +", 1)
    with pytest.raises(ExprSyntaxError):
        parse("", 1)
    err = pytest.raises(ExprSyntaxError, parse, "z1 + $", 1).value
    assert err.position == 5


def test_non_integer_exponent_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("z1^1.5", 1)
    assert evaluate(parse("z1^-2", 1), (2 + 0j,)) == pytest.approx(0.25)


def test_precedence():
    # ^ binds tighter than unary minus, which binds tighter than * /
    assert evaluate(parse("-z1^2", 1), (2 + 0j,)) == -4
    assert evaluate(parse("1+2*3", 1), (0j,)) == 7
    assert evaluate(parse("2*z1^2", 1), (3 + 0j,)) == 18


def test_complex_literal_and_constants():
    assert evaluate(parse("2+3*i", 1), (0j,)) == 2 + 3j
    assert evaluate(parse("exp(i*pi)", 1), (0j,)) == pytest.approx(-1)
    assert evaluate(parse("log(e)", 1), (0j,)) == pytest.approx(1)


def test_evaluate_basics():
    assert evaluate(parse("z1^2", 1), (2 + 0j,)) == 4
    assert evaluate(parse("exp(z1)", 1), (0j,)) == 1


def test_evaluate_sin_reciprocal_near_one():
    z = complex(1 - 1 / (2 * math.pi))
    value = evaluate(parse("sin(1/(1-z1))", 1), (z,))
    assert abs(value) < 1e-12  # sin(2*pi)


def test_pole_and_branch_errors():
    with pytest.raises(PoleError):
        evaluate(parse("1/z1", 1), (0j,))
    with pytest.raises(BranchError):
        evaluate(parse("log(z1)", 1), (0j,))


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        evaluate(parse("z1", 1), (0j, 0j))


def test_jet_product():
    jet = evaluate_jet(parse("z1*z2", 2), (1 + 0j, 1 + 0j))
    assert jet.value == 1
    assert jet.gradient == (1 + 0j, 1 + 0j)


def test_jet_exp():
    jet = evaluate_jet(parse("exp(z1)", 1), (0j,))
    assert jet.value == 1
    assert jet.gradient == (1 + 0j,)


def test_jet_sin_reciprocal_analytic_derivative():
    # d/dz sin(1/(1-z)) = cos(1/(1-z)) / (1-z)^2; at z = 1 - 1/(2pi) this is (2pi)^2
    z = complex(1 - 1 / (2 * math.pi))
    jet = evaluate_jet(parse("sin(1/(1-z1))", 1), (z,))
    expected = (2 * math.pi) ** 2
    assert abs(jet.gradient[0] - expected) <= 1e-8 * expected


def _random_expr(rng: random.Random, dim: int) -> str:
    leaves = [f"z{k}" for k in range(1, dim + 1)] + ["0.5", "1+1*i", "2"]
    pool = leaves[:]
    for _ in range(rng.randint(2, 6)):
        a, b = rng.choice(pool), rng.choice(pool)
        choice = rng.random()
        if choice < 0.55:
            pool.append(f"({a}{rng.choice('+-*')}{b})")
        elif choice < 0.75:
            pool.append(f"{rng.choice(['exp', 'sin', 'cos'])}({a})")
        else:
            pool.append(f"({a}^{rng.randint(1, 3)})")
    return pool[-1]


def _fd_gradient(expr, z, h):
    grads = []
    for k in range(len(z)):
        def shift(t):
            w = list(z)
            w[k] += t
            return evaluate(expr, tuple(w))
        grads.append((shift(h) - shift(-h)) / (2 * h))
    return grads


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_jet_matches_central_differences(dim):
    rng = random.Random(20240 + dim)
    for trial in range(40):
        expr = parse(_random_expr(rng, dim), dim)
        z = tuple(
            complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)) for _ in range(dim)
        )
        jet = evaluate_jet(expr, z)
        h = 1e-6 * (1 + max(abs(c) for c in z))
        for got, want in zip(jet.gradient, _fd_gradient(expr, z, h)):
            assert abs(got - want) <= 1e-5 * (1 + abs(want))


def test_affine_pullback_at_zero_is_base_value():
    f = parse("sin(z1)+z1^2", 1)
    g = affine_pullback(f, (0.3 + 0.1j,), 0.25)
    assert evaluate(g, (0j,)) == pytest.approx(evaluate(f, (0.3 + 0.1j,)))


def test_affine_pullback_chain_rule():
    f = parse("exp(z1*z2)", 2)
    base = (0.2 + 0.1j, -0.3 + 0.2j)
    scale = 0.5 + 0.25j
    g = affine_pullback(f, base, scale)
    zeta = (0.4 - 0.2j, 0.1 + 0.3j)
    shifted = tuple(b + scale * t for b, t in zip(base, zeta))
    jet_g = evaluate_jet(g, zeta)
    jet_f = evaluate_jet(f, shifted)
    for gg, gf in zip(jet_g.gradient, jet_f.gradient):
        assert abs(gg - scale * gf) <= 1e-12 * (1 + abs(gf))


def test_affine_pullback_remark_sequence():
    # f(z) = z with z_n = 1 - n^-3, rho_n = n^-2 gives g_n(zeta) = z_n + rho_n*zeta
    f = parse("z1", 1)
    n = 4
    g = affine_pullback(f, (complex(1 - n**-3),), n**-2)
    zeta = 0.7 - 0.2j
    assert evaluate(g, (zeta,)) == pytest.approx((1 - n**-3) + n**-2 * zeta)


def test_affine_pullback_randomized_identity():
    rng = random.Random(99)
    for _ in range(30):
        dim = rng.choice([1, 2])
        f = parse(_random_expr(rng, dim), dim)
        base = tuple(
            complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)) for _ in range(dim)
        )
        scale = complex(rng.uniform(0.1, 0.6), rng.uniform(-0.3, 0.3))
        zeta = tuple(
            complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)) for _ in range(dim)
        )
        lhs = evaluate(affine_pullback(f, base, scale), zeta)
        rhs = evaluate(f, tuple(b + scale * t for b, t in zip(base, zeta)))
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))


def test_zero_scale_rejected():
    with pytest.raises(ValueError):
        affine_pullback(parse("z1", 1), (0j,), 0)


def test_print_parse_roundtrip():
    sources = [
        "z1",
        "sin(1/(1-z1))",
        "-z1^2 + 3*z1 - 1",
        "exp(i*z1)*cos(z2)",
        "(z1+z2)^3 / (1 - z1*z2)",
        "2+3*i",
        "log(1+z1^2)",
        "-" * 60 + "z1",
        "z1*(-1-2*i) - (2-3*i)/z1 + (-2)^2 - -2^2",
        "-(z1^2)^-3 * (z1-(z1-z1)) / (z1/(z1*z1))",
    ]
    for src in sources:
        dim = 2 if "z2" in src else 1
        first = parse(src, dim)
        again = parse(to_source(first), dim)
        assert first == again
    assert to_source(parse("1-2*i", 1)) == "1.0-2.0*i"
    assert to_source(parse("-" * 60 + "z1", 1)) == "-" * 60 + "z1"


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3))
def test_print_parse_roundtrip_random(seed, dim):
    expr = parse(_hostile_expr(random.Random(seed), dim), dim)
    assert parse(to_source(expr), dim) == expr


def _any_tree():
    # arbitrary trees, constants of any sign and size included; not all are
    # what `parse` returns (it folds constant arithmetic and signs)
    leaves = st.one_of(
        st.builds(Var, st.integers(1, 2)),
        st.builds(Const, st.complex_numbers(allow_nan=False, allow_infinity=False)),
    )

    def extend(children):
        return st.one_of(
            st.builds(Neg, children),
            st.builds(BinOp, st.sampled_from("+-*/"), children, children),
            st.builds(Pow, children, st.integers(-3, 3)),
            st.builds(Func, st.sampled_from(["exp", "sin", "cos", "log"]), children),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(tree=_any_tree())
def test_printed_trees_reparse_to_themselves(tree):
    parsed = parse(to_source(HoloExpr(2, tree)), 2)
    assert parse(to_source(parsed), 2) == parsed


def test_roundtrip_at_the_depth_cap():
    # MAX_DEPTH tree levels and MAX_DEPTH levels of nesting in this spelling;
    # the printer writes the constant as (-1.0-2.0*i), whose sign does not nest
    calls = MAX_DEPTH - 3
    expr = parse("exp(" * calls + "-(z1*(0-1-2*i))" + ")" * calls, 1)
    assert parse(to_source(expr), 1) == expr


def test_jet_value_matches_evaluate():
    f = parse("cos(z1)/(2-z1)", 1)
    z = (0.3 + 0.4j,)
    assert evaluate_jet(f, z).value == evaluate(f, z)


def test_evaluate_overflow_raises():
    from normlab import EvaluationError

    with pytest.raises(EvaluationError):
        evaluate(parse("exp(exp(z1))", 1), (20 + 0j,))


# --------------------------------------------------------------------------
# Batched evaluation
# --------------------------------------------------------------------------

def _hostile_expr(rng: random.Random, dim: int) -> str:
    wrap = rng.choice(["{}", "1/({})", "log({})", "exp(exp({}))", "({})^-2"])
    return wrap.format(_random_expr(rng, dim))


def _hostile_points(rng: random.Random, dim: int, count: int) -> np.ndarray:
    # exact zeros and large coordinates, so that poles, log branch points and
    # overflow all occur
    def coordinate():
        if rng.random() < 0.3:
            return complex(rng.choice([0.0, 1.0, -1.0, 2.0, 30.0, 800.0]))
        return complex(rng.uniform(-2, 2), rng.uniform(-2, 2))

    return np.array([[coordinate() for _ in range(dim)] for _ in range(count)])


def _same_bits(a, b) -> bool:
    return np.asarray(a, dtype=complex).tobytes() == np.asarray(b, dtype=complex).tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3))
def test_batch_rows_match_single_points_and_any_chunking(seed, dim):
    rng = random.Random(seed)
    expr = parse(_hostile_expr(rng, dim), dim)
    points = _hostile_points(rng, dim, 17)
    for gradient in (True, False):
        whole = evaluate_batch(expr, points, gradient)
        cut = rng.randint(0, len(points))
        parts = [evaluate_batch(expr, points[:cut], gradient), evaluate_batch(expr, points[cut:], gradient)]
        assert np.array_equal(whole.status, np.concatenate([p.status for p in parts]))
        ok = whole.status == OK
        assert _same_bits(whole.value[ok], np.concatenate([p.value for p in parts])[ok])
        assert _same_bits(whole.gradient[ok], np.concatenate([p.gradient for p in parts])[ok])
    jets = evaluate_batch(expr, points)
    values = evaluate_batch(expr, points, gradient=False)
    for i, z in enumerate(points):
        if jets.status[i] == OK:
            jet = evaluate_jet(expr, tuple(z))
            assert _same_bits(jet.value, jets.value[i])
            assert _same_bits(jet.gradient, jets.gradient[i])
        if values.status[i] == OK:
            assert _same_bits(evaluate(expr, tuple(z)), values.value[i])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3))
def test_batch_status_matches_single_point_exception(seed, dim):
    rng = random.Random(seed)
    expr = parse(_hostile_expr(rng, dim), dim)
    points = _hostile_points(rng, dim, 9)
    for gradient, single in ((True, evaluate_jet), (False, evaluate)):
        batch = evaluate_batch(expr, points, gradient)
        for z, status in zip(points, batch.status):
            if status == OK:
                single(expr, tuple(z))
                continue
            with pytest.raises(EvaluationError) as info:
                single(expr, tuple(z))
            assert type(info.value) is type(status_error(status))


def _reference(node, z):
    # One point, one recursive walk in cmath: the reference for values and
    # for which error a point raises (its first failure in post-order).
    def finite(value):
        if not cmath.isfinite(value):
            raise EvaluationError("non-finite")
        return value

    if isinstance(node, Var):
        return z[node.index - 1]
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Neg):
        return -_reference(node.child, z)
    if isinstance(node, Pow):
        base = _reference(node.base, z)
        if node.exponent < 0 and abs(base) < POLE_THRESHOLD:
            raise PoleError("pole")
        return finite(base**node.exponent)
    if isinstance(node, Func):
        a = _reference(node.arg, z)
        if node.name == "log" and abs(a) < POLE_THRESHOLD:
            raise BranchError("log at 0")
        return finite(getattr(cmath, node.name)(a))
    a, b = _reference(node.left, z), _reference(node.right, z)
    if node.op == "/" and abs(b) < POLE_THRESHOLD:
        raise PoleError("pole")
    ops = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
    return finite(ops[node.op](a, b))


def test_batch_matches_scalar_reference():
    rng = random.Random(2023)
    for _ in range(300):
        dim = rng.randint(1, 3)
        expr = parse(_hostile_expr(rng, dim), dim)
        points = _hostile_points(rng, dim, 8)
        batch = evaluate_batch(expr, points, gradient=False)
        for z, status, value in zip(points, batch.status, batch.value):
            try:
                want = _reference(expr.root, tuple(complex(c) for c in z))
            except (EvaluationError, OverflowError) as exc:
                expected = exc if isinstance(exc, EvaluationError) else EvaluationError()
                assert status != OK and type(status_error(status)) is type(expected)
                continue
            assert status == OK
            # rounding differs by operation order; large arguments of exp, sin
            # and cos amplify it, up to a few 1e-12 on these inputs
            assert abs(value - want) <= 1e-10 * (1 + abs(want))


def test_mixed_batch_statuses():
    # post-order: log(z1), then 1/z2, then exp(exp(z3))
    f = parse("log(z1) + 1/z2 + exp(exp(z3))", 3)
    nan = complex("nan")
    points = [
        (1, 1, 0),  # fine
        (1, 0, 0),  # pole
        (0, 1, 0),  # log(0)
        (1, 1, 10),  # exp(exp(10)) overflows
        (0, 0, 10),  # all three: the log comes first
        (nan, 1, 0),  # non-finite input
    ]
    batch = evaluate_batch(f, points)
    assert batch.status.tolist() == [OK, POLE, BRANCH, NONFINITE, BRANCH, NONFINITE]
    assert batch.value[0] == 1.0 + math.exp(1.0)
    with pytest.raises(PoleError):
        batch.check()


def test_batch_rejects_wrong_shape():
    with pytest.raises(DimensionMismatchError):
        evaluate_batch(parse("z1*z2", 2), np.zeros((4, 3), dtype=complex))


def test_non_finite_input_raises():
    f = parse("z1", 1)
    for bad in (complex("nan"), complex("inf"), complex(0.5, float("nan"))):
        with pytest.raises(EvaluationError):
            evaluate(f, (bad,))
        with pytest.raises(EvaluationError):
            evaluate_jet(f, (bad,))


def test_no_warnings_leak(recwarn):
    batch = evaluate_batch(parse("1/z1 + exp(z1)^9", 1), [(0j,), (1e-310 + 0j,), (900 + 0j,)])
    assert batch.status.tolist() == [POLE, POLE, NONFINITE]
    assert not recwarn.list


# --------------------------------------------------------------------------
# Depth cap
# --------------------------------------------------------------------------

def test_depth_cap_parentheses_and_calls():
    assert parse("(" * MAX_DEPTH + "z1" + ")" * MAX_DEPTH, 1).root == Var(1)
    for depth in (MAX_DEPTH + 1, 3000):
        with pytest.raises(ExprSyntaxError):
            parse("(" * depth + "z1" + ")" * depth, 1)
    with pytest.raises(ExprSyntaxError):
        parse("exp(" * 3000 + "z1" + ")" * 3000, 1)
    with pytest.raises(ExprSyntaxError):
        parse("-" * 3000 + "z1", 1)


def test_depth_cap_operator_chains():
    chain = parse("+".join(["z1"] * MAX_DEPTH), 1)  # MAX_DEPTH levels deep
    assert evaluate(chain, (1 + 0j,)) == MAX_DEPTH
    product = parse("*".join(["z1"] * 40), 1)
    assert parse(to_source(product), 1) == product
    for terms in (MAX_DEPTH + 1, 1500):
        with pytest.raises(ExprSyntaxError):
            parse("+".join(["z1"] * terms), 1)


def test_overflowing_literal_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("1e400*z1", 1)
