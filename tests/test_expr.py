import cmath
import math
import operator
import random

import mpmath
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
    with pytest.raises(ValueError, match="^dimension must be >= 1, got 0$"):
        parse("z1", 0)


def test_unknown_identifier_and_syntax_errors():
    # source, message and position of each syntax error
    cases = [
        ("foo(z1)", "unknown identifier 'foo'", 0),
        ("z1 +", "unexpected end of input", 4),
        ("", "empty source", 0),
        ("z1 + $", "unexpected character '$'", 5),
        ("1.2.3", "malformed number '1.2.3'", 0),
        ("sin 2", "expected '('", 4),
        ("z1 z1", "unexpected trailing input 'z1'", 3),
        ("z1^z1", "expected integer exponent", 3),
        ("z0", "invalid variable 'z0'", 0),
        (")", "unexpected token ')'", 0),
    ]
    for source, message, position in cases:
        err = pytest.raises(ExprSyntaxError, parse, source, 1).value
        assert (str(err), err.position) == (f"{message} (at position {position})", position), source


def test_non_integer_exponent_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("z1^1.5", 1)
    assert evaluate_batch(parse("z1^-2", 1), [(2 + 0j,)]).check().value[0] == pytest.approx(0.25)


def test_precedence():
    # ^ binds tighter than unary minus, which binds tighter than * /
    assert evaluate_batch(parse("-z1^2", 1), [(2 + 0j,)]).check().value[0] == -4
    assert evaluate_batch(parse("1+2*3", 1), [(0j,)]).check().value[0] == 7
    assert evaluate_batch(parse("2*z1^2", 1), [(3 + 0j,)]).check().value[0] == 18


def test_complex_literal_and_constants():
    assert evaluate_batch(parse("2+3*i", 1), [(0j,)]).check().value[0] == 2 + 3j
    assert evaluate_batch(parse("exp(i*pi)", 1), [(0j,)]).check().value[0] == pytest.approx(-1)
    assert evaluate_batch(parse("log(e)", 1), [(0j,)]).check().value[0] == pytest.approx(1)


def test_evaluate_basics():
    assert evaluate_batch(parse("z1^2", 1), [(2 + 0j,)]).check().value[0] == 4
    assert evaluate_batch(parse("exp(z1)", 1), [(0j,)]).check().value[0] == 1


def test_evaluate_sin_reciprocal_near_one():
    z = complex(1 - 1 / (2 * math.pi))
    value = evaluate_batch(parse("sin(1/(1-z1))", 1), [(z,)]).check().value[0]
    assert abs(value) < 1e-12  # sin(2*pi)


def test_pole_and_branch_errors():
    with pytest.raises(PoleError):
        evaluate_batch(parse("1/z1", 1), [(0j,)]).check()
    with pytest.raises(BranchError):
        evaluate_batch(parse("log(z1)", 1), [(0j,)]).check()


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        evaluate_batch(parse("z1", 1), [(0j, 0j)])
    with pytest.raises(DimensionMismatchError, match="^base has dimension 1, expression expects 2$"):
        affine_pullback(parse("z1*z2", 2), (0j,), 0.5)


def test_jet_product():
    jet = evaluate_batch(parse("z1*z2", 2), [(1 + 0j, 1 + 0j)]).check()
    assert jet.value.tolist() == [1]
    assert jet.gradient.tolist() == [[1 + 0j, 1 + 0j]]


def test_jet_exp():
    jet = evaluate_batch(parse("exp(z1)", 1), [(0j,)]).check()
    assert jet.value.tolist() == [1]
    assert jet.gradient.tolist() == [[1 + 0j]]


def test_jet_sin_reciprocal_analytic_derivative():
    # d/dz sin(1/(1-z)) = cos(1/(1-z)) / (1-z)^2; at z = 1 - 1/(2pi) this is (2pi)^2
    z = complex(1 - 1 / (2 * math.pi))
    jet = evaluate_batch(parse("sin(1/(1-z1))", 1), [(z,)]).check()
    expected = (2 * math.pi) ** 2
    assert abs(jet.gradient[0, 0] - expected) <= 1e-8 * expected


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
            return evaluate_batch(expr, [w], gradient=False).check().value[0]
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
        jet = evaluate_batch(expr, [z]).check()
        h = 1e-6 * (1 + max(abs(c) for c in z))
        for got, want in zip(jet.gradient[0], _fd_gradient(expr, z, h)):
            assert abs(got - want) <= 1e-5 * (1 + abs(want))


def test_affine_pullback_at_zero_is_base_value():
    f = parse("sin(z1)+z1^2", 1)
    g = affine_pullback(f, (0.3 + 0.1j,), 0.25)
    assert evaluate_batch(g, [(0j,)]).check().value[0] == pytest.approx(evaluate_batch(f, [(0.3 + 0.1j,)]).check().value[0])


def test_affine_pullback_chain_rule():
    f = parse("exp(z1*z2)", 2)
    base = (0.2 + 0.1j, -0.3 + 0.2j)
    scale = 0.5 + 0.25j
    g = affine_pullback(f, base, scale)
    zeta = (0.4 - 0.2j, 0.1 + 0.3j)
    shifted = tuple(b + scale * t for b, t in zip(base, zeta))
    jet_g = evaluate_batch(g, [zeta]).check()
    jet_f = evaluate_batch(f, [shifted]).check()
    for gg, gf in zip(jet_g.gradient[0], jet_f.gradient[0]):
        assert abs(gg - scale * gf) <= 1e-12 * (1 + abs(gf))


def test_affine_pullback_remark_sequence():
    # f(z) = z with z_n = 1 - n^-3, rho_n = n^-2 gives g_n(zeta) = z_n + rho_n*zeta
    f = parse("z1", 1)
    n = 4
    g = affine_pullback(f, (complex(1 - n**-3),), n**-2)
    zeta = 0.7 - 0.2j
    assert evaluate_batch(g, [(zeta,)]).check().value[0] == pytest.approx((1 - n**-3) + n**-2 * zeta)


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
        lhs = evaluate_batch(affine_pullback(f, base, scale), [zeta]).check().value[0]
        rhs = evaluate_batch(f, [[b + scale * t for b, t in zip(base, zeta)]]).check().value[0]
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


def test_unknown_node_is_a_type_error():
    f = HoloExpr(1, "x")
    for refuse in (lambda: to_source(f), lambda: evaluate_batch(f, [(0j,)])):
        with pytest.raises(TypeError, match="^unknown node 'x'$"):
            refuse()


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
    assert evaluate_batch(f, [z]).check().value[0] == evaluate_batch(f, [z], gradient=False).check().value[0]


def test_evaluate_overflow_raises():
    from normlab import EvaluationError

    with pytest.raises(EvaluationError):
        evaluate_batch(parse("exp(exp(z1))", 1), [(20 + 0j,)]).check()


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
            jet = evaluate_batch(expr, [z]).check()
            assert _same_bits(jet.value[0], jets.value[i])
            assert _same_bits(jet.gradient[0], jets.gradient[i])
        if values.status[i] == OK:
            assert _same_bits(evaluate_batch(expr, z[None], gradient=False).value[0], values.value[i])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3))
def test_batch_status_matches_single_point_exception(seed, dim):
    rng = random.Random(seed)
    expr = parse(_hostile_expr(rng, dim), dim)
    points = _hostile_points(rng, dim, 9)
    for gradient in (True, False):
        batch = evaluate_batch(expr, points, gradient)
        for z, status in zip(points, batch.status):
            if status == OK:
                evaluate_batch(expr, [z], gradient).check()
                continue
            with pytest.raises(EvaluationError) as info:
                evaluate_batch(expr, [z], gradient).check()
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


class _NearBranchCut(Exception):
    pass


def _mp_reference(node, z, peak):
    """The value of the tree at z in mpmath's working precision; peak[0]
    keeps the largest modulus met on the way.  Raises _NearBranchCut where a
    log argument lies within 1e-8 of the negative real axis, across which
    the rounding of either walk may carry it."""
    if isinstance(node, Var):
        value = z[node.index - 1]
    elif isinstance(node, Const):
        value = mpmath.mpc(node.value)
    elif isinstance(node, Neg):
        value = -_mp_reference(node.child, z, peak)
    elif isinstance(node, Pow):
        value = _mp_reference(node.base, z, peak) ** node.exponent
    elif isinstance(node, Func):
        a = _mp_reference(node.arg, z, peak)
        if node.name == "log" and a.real < 0 and abs(a.imag) < 1e-8:
            raise _NearBranchCut
        value = getattr(mpmath, node.name)(a)
    else:
        a, b = _mp_reference(node.left, z, peak), _mp_reference(node.right, z, peak)
        value = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}[node.op](a, b)
    peak[0] = max(peak[0], abs(value))
    return value


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3))
def test_batch_matches_a_50_digit_walk(seed, dim):
    # every operation of the engine: the trees of `_random_expr`, some under
    # a log, a division or a negative power (not exp(exp(.)), whose large
    # arguments amplify their own rounding past any bound relative to size)
    rng = random.Random(seed)
    wrap = rng.choice(["{}", "log({})", "1/({})", "({})^-2"])
    expr = parse(wrap.format(_random_expr(rng, dim)), dim)
    points = np.array([[complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(dim)] for _ in range(8)])
    batch = evaluate_batch(expr, points, gradient=False)
    with mpmath.workdps(50):
        for z, status, value in zip(points, batch.status, batch.value):
            if status != OK:
                continue
            peak = [mpmath.mpf(0)]
            try:
                want = _mp_reference(expr.root, [mpmath.mpc(c) for c in z], peak)
            except _NearBranchCut:
                continue
            assert abs(mpmath.mpc(value) - want) <= 1e-13 * peak[0]


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


@pytest.mark.parametrize("source", ["z2", "-z1", "2", "z1^0", "z1*z2", "exp(z1)+1"])
@pytest.mark.parametrize("rows", [0, 1, 3])
def test_batch_arrays_are_its_own(source, rows):
    # a result the walk computed is handed over as it is; a column of the
    # points, a constant or a gradient row is copied, so writing to the batch
    # leaves the points and the next batch alone
    f = parse(source, 2)
    points = np.arange(2 * rows, dtype=complex).reshape(rows, 2) / 4
    kept = points.copy()
    for gradient in (True, False):
        batch = evaluate_batch(f, points, gradient)
        assert batch.value.shape == (rows,) and batch.gradient.shape == (rows, 2 if gradient else 0)
        assert batch.value.flags.writeable and batch.gradient.flags.writeable
        assert not np.shares_memory(batch.value, points) and not np.shares_memory(batch.gradient, points)
        batch.value[:] = 7
        batch.gradient[:] = 7
        assert points.tobytes() == kept.tobytes()
        assert (evaluate_batch(f, points, gradient).value != 7).all()


def test_non_finite_input_raises():
    f = parse("z1", 1)
    for bad in (complex("nan"), complex("inf"), complex(0.5, float("nan"))):
        with pytest.raises(EvaluationError):
            evaluate_batch(f, [(bad,)], gradient=False).check()
        with pytest.raises(EvaluationError):
            evaluate_batch(f, [(bad,)]).check()


def test_no_warnings_leak(recwarn):
    batch = evaluate_batch(parse("1/z1 + exp(z1)^9", 1), [(0j,), (1e-310 + 0j,), (900 + 0j,)])
    assert batch.status.tolist() == [POLE, POLE, NONFINITE]
    assert not recwarn.list


class _RowWalk:
    """The walk as it stood before its passes left the coordinate axis: a
    Const as an (N,) array, finiteness tested row by row at every node.  The
    reference the kernel must match bit for bit."""

    def __init__(self, Z, gradient):
        self.Z = Z
        self.width = Z.shape[1] if gradient else 0
        self.units = np.eye(Z.shape[1], self.width, dtype=complex)
        self.zero = np.zeros(self.width, dtype=complex)
        self.status = np.where(np.isfinite(Z).all(axis=1), OK, NONFINITE).astype(np.int8)

    def mark(self, bad, code):
        if bad.any():
            self.status[bad & (self.status == OK)] = code

    def finite(self, v, g):
        bad = ~np.isfinite(v)
        if self.width:
            bad |= ~np.isfinite(g).all(axis=-1)
        self.mark(bad, NONFINITE)
        return v, g

    def chain(self, v, derivative, g):
        return self.finite(v, derivative()[:, None] * g if self.width else g)

    def __call__(self, node):
        if isinstance(node, Var):
            return self.Z[:, node.index - 1], self.units[node.index - 1]
        if isinstance(node, Const):
            return np.full(len(self.Z), node.value), self.zero
        if isinstance(node, Neg):
            v, g = self(node.child)
            return -v, -g
        if isinstance(node, BinOp):
            a, ga = self(node.left)
            b, gb = self(node.right)
            if node.op in "+-":
                combine = operator.add if node.op == "+" else operator.sub
                return self.finite(combine(a, b), combine(ga, gb))
            if node.op == "*":
                return self.finite(a * b, a[:, None] * gb + b[:, None] * ga)
            self.mark(np.abs(b) < POLE_THRESHOLD, POLE)
            v = a / b
            return self.finite(v, (ga - v[:, None] * gb) / b[:, None])
        if isinstance(node, Pow):
            a, ga = self(node.base)
            k = node.exponent
            if k == 0:
                return np.ones_like(a), self.zero
            if k < 0:
                self.mark(np.abs(a) < POLE_THRESHOLD, POLE)
            return self.chain(a**k, lambda: k * a ** (k - 1), ga)
        a, ga = self(node.arg)
        if node.name == "exp":
            v = np.exp(a)
            return self.chain(v, lambda: v, ga)
        if node.name == "sin":
            return self.chain(np.sin(a), lambda: np.cos(a), ga)
        if node.name == "cos":
            return self.chain(np.cos(a), lambda: -np.sin(a), ga)
        self.mark(np.abs(a) < POLE_THRESHOLD, BRANCH)
        return self.chain(np.log(a), lambda: 1.0 / a, ga)


def _row_walk_batch(expr, points, gradient):
    Z = np.array(points, dtype=complex)
    walk = _RowWalk(Z, gradient)
    with np.errstate(all="ignore"):
        value, grad = walk(expr.root)
    return np.array(value, dtype=complex), np.broadcast_to(grad, (len(Z), walk.width)).copy(), walk.status


def _kernel_expr(rng: random.Random, dim: int) -> str:
    # every node kind, constant subtrees the parser does not fold (a
    # quotient, a power, a function of a constant), poles, log branch points,
    # zero and negative powers
    pool = [f"z{k}" for k in range(1, dim + 1)] + ["0.5", "(1+1*i)", "3", "(0.1-0.7*i)"]
    for _ in range(rng.randint(2, 8)):
        a, b = rng.choice(pool), rng.choice(pool)
        choice = rng.random()
        if choice < 0.5:
            pool.append(f"({a}{rng.choice('+-*/')}{b})")
        elif choice < 0.75:
            pool.append(f"{rng.choice(['exp', 'sin', 'cos', 'log'])}({a})")
        elif choice < 0.9:
            pool.append(f"({a}^{rng.randint(-3, 3)})")
        else:
            pool.append(f"(-{a})")
    return rng.choice(["{}", "exp(exp({}))", "{}*z1^-1"]).format(pool[-1])


def _kernel_points(rng: random.Random, dim: int) -> np.ndarray:
    # hostile rows, then rows with a non-finite coordinate in each column in
    # turn, and with a coordinate whose powers and reciprocals overflow (where
    # a gradient overflows and its value does not)
    points = _hostile_points(rng, dim, 24)
    for k in range(dim):
        for bad in (complex("nan"), complex("inf"), complex(0.5, float("-inf")), 1e-170j, 1e170 + 1e170j):
            row = _hostile_points(rng, dim, 1)
            row[0, k] = bad
            points = np.concatenate([points, row])
    return points


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4))
def test_evaluate_batch_matches_the_row_walk_bit_for_bit(seed, dim):
    rng = random.Random(seed)
    expr = parse(_kernel_expr(rng, dim), dim)
    points = _kernel_points(rng, dim)
    for gradient in (True, False):
        value, grad, status = _row_walk_batch(expr, points, gradient)
        # row-major points, and the column-major layout the fd oracle hands over
        ok = status == OK
        for layout in (points, np.asfortranarray(points)):
            batch = evaluate_batch(expr, layout, gradient)
            assert batch.status.tobytes() == status.tobytes()
            assert batch.gradient.shape == grad.shape
            assert batch.value[ok].tobytes() == value[ok].tobytes()
            assert batch.gradient[ok].tobytes() == grad[ok].tobytes()
            # a failing row's numbers mean nothing, and the sign of a NaN
            # there follows numpy's loop; they still agree as values
            assert np.array_equal(batch.value, value, equal_nan=True)
            assert np.array_equal(batch.gradient, grad, equal_nan=True)


def test_row_walk_reference_sees_every_failure():
    # the reference above meets poles, branch points, overflow and bad inputs
    f = parse("log(z1) + 1/z2 + exp(exp(z3)) + (0.5/3)^0", 3)
    points = [(1, 1, 0), (1, 0, 0), (0, 1, 0), (1, 1, 10), (complex("nan"), 1, 0), (1, complex("inf"), 0)]
    status = _row_walk_batch(f, points, True)[2]
    assert status.tolist() == [OK, POLE, BRANCH, NONFINITE, NONFINITE, NONFINITE]
    assert evaluate_batch(f, points).status.tolist() == status.tolist()
    # a gradient that overflows where its value does not
    g = parse("z1^-1", 1)
    for gradient, want in ((True, NONFINITE), (False, OK)):
        assert _row_walk_batch(g, [(1e-170j,)], gradient)[2].tolist() == [want]
        assert evaluate_batch(g, [(1e-170j,)], gradient).status.tolist() == [want]


@pytest.mark.parametrize("source", [
    # an earlier sibling overflows before a later pole: the pole comes second
    "exp(exp(z1))*z2 + 1/(z2-z2)",
    # each place where a non-finite value can vanish
    "exp(-exp(exp(z1)))",
    "1/exp(exp(z1))",
    "exp(exp(z1))^0",
    "exp(exp(z1))^-1",
    "log(exp(exp(z1)))",
    # a cancellation
    "(exp(exp(z1))-exp(exp(z1)))*0+z1",
])
def test_finiteness_checkpoints_keep_the_first_failure(source):
    # the walk tests finiteness only where a non-finite value can vanish and
    # at the root; the reference tests it at every node
    f = parse(source, 2)
    points = [(10, 1), (0.5, 1), (-800, 2j), (6.5 + 0.1j, 1e-170j), (complex("nan"), 1)]
    for gradient in (True, False):
        value, grad, status = _row_walk_batch(f, points, gradient)
        batch = evaluate_batch(f, points, gradient)
        assert batch.status.tobytes() == status.tobytes()
        assert batch.status[0] == NONFINITE  # exp(exp(10)) overflows
        ok = status == OK
        assert batch.value[ok].tobytes() == value[ok].tobytes()
        assert batch.gradient[ok].tobytes() == grad[ok].tobytes()


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
    assert evaluate_batch(chain, [(1 + 0j,)]).check().value[0] == MAX_DEPTH
    product = parse("*".join(["z1"] * 40), 1)
    assert parse(to_source(product), 1) == product
    for terms in (MAX_DEPTH + 1, 1500):
        with pytest.raises(ExprSyntaxError):
            parse("+".join(["z1"] * terms), 1)


def test_overflowing_literal_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("1e400*z1", 1)
