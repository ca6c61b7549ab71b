"""Holomorphic expression language: parsing, evaluation, complex forward-mode
differentiation, and affine reparametrization.

Grammar (variables ``z1``..``z9``, constants ``i``, ``pi``, ``e``)::

    expr    :=  term (('+' | '-') term)*
    term    :=  factor (('*' | '/') factor)*
    factor  :=  '-' factor | power
    power   :=  atom ('^' exponent)?          # exponent: signed integer literal
    atom    :=  number | variable | constant | name '(' expr ')' | '(' expr ')'

Functions: ``exp``, ``sin``, ``cos``, ``log`` (principal branch).  Integer
exponents only, so every parsed expression is single-valued holomorphic away
from poles of ``/`` and negative powers, and away from log branch points.
Complex literals are written arithmetically, e.g. ``2+3*i``; a literal that
overflows to infinity is a syntax error.

Depth is capped at ``MAX_DEPTH`` levels, well inside Python's recursion limit:
parenthesized groups, function calls and unary minus (other than the sign of
a number literal, which recurses no further) may nest that deep, and
so may the parsed tree, where each function call, unary minus, power and
binary operator is one level (an operator chain ``a+b+...`` is as deep as it
is long).  Deeper input raises ``ExprSyntaxError``.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import operator
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (
    BranchError,
    DimensionMismatchError,
    EvaluationError,
    ExprSyntaxError,
    PoleError,
)

# Divisors with modulus below this raise PoleError; log below it raises BranchError.
POLE_THRESHOLD = 1e-300

# Deepest nesting `parse` accepts (see the module docstring).
MAX_DEPTH = 100

CPoint = tuple[complex, ...]

FUNCTIONS = ("exp", "sin", "cos", "log")
CONSTANTS = {"i": 1j, "pi": complex(cmath.pi), "e": complex(cmath.e)}


# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Var:
    index: int  # 1-based


@dataclass(frozen=True)
class Const:
    value: complex


@dataclass(frozen=True)
class Neg:
    child: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


@dataclass(frozen=True)
class Func:
    name: str
    arg: "Node"


Node = Union[Var, Const, Neg, BinOp, Pow, Func]


@dataclass(frozen=True)
class HoloExpr:
    """A holomorphic function of ``dimension`` complex variables."""

    dimension: int
    root: Node


# --------------------------------------------------------------------------
# Tokenizer / parser
# --------------------------------------------------------------------------

# A number (digits and dots, optional exponent), a name or an operator, and
# the whitespace after it.
_TOKEN = re.compile(r"(?:([0-9.]+(?:[eE][-+0-9][0-9]*)?)|([^\W\d_]\w*)|([-+*/^()]))\s*")


def _tokenize(source: str) -> list[tuple[str, object, int]]:
    """Returns (kind, payload, position) triples; kind in {num, name, op}."""
    tokens = []
    pos = len(source) - len(source.lstrip())
    while pos < len(source):
        match = _TOKEN.match(source, pos)
        if match is None:
            raise ExprSyntaxError(f"unexpected character {source[pos]!r}", pos)
        number, name, op = match.groups()
        if number is not None:
            try:
                value = float(number)
            except ValueError:
                raise ExprSyntaxError(f"malformed number {number!r}", pos)
            if not math.isfinite(value):
                raise ExprSyntaxError(f"number {number!r} overflows", pos)
            tokens.append(("num", value, pos))
        else:
            tokens.append(("name", name, pos) if name else ("op", op, pos))
        pos = match.end()
    return tokens


def _fold_neg(child: Node) -> Node:
    if isinstance(child, Const):
        return Const(-child.value)
    return Neg(child)


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _fold_bin(op: str, left: Node, right: Node) -> Node:
    # Fold constant +,-,* so complex literals like 2+3*i parse to one Const
    # node (keeps the canonical printer's output stable under re-parsing).
    if op in _ARITHMETIC and isinstance(left, Const) and isinstance(right, Const):
        value = _ARITHMETIC[op](left.value, right.value)
        if cmath.isfinite(value):
            return Const(value)
    return BinOp(op, left, right)


class _Parser:
    def __init__(self, tokens: list[tuple[str, object, int]], dimension: int, length: int):
        self.tokens = tokens
        self.dimension = dimension
        self.pos = 0
        self.end = length
        self.nesting = 0

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            raise ExprSyntaxError("unexpected end of input", self.end)
        self.pos += 1
        return tok

    def _nested(self, parse_inner, pos: int) -> Node:
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels", pos)
        node = parse_inner()
        self.nesting -= 1
        return node

    def _expect_op(self, op: str):
        tok = self._next()
        if tok[0] != "op" or tok[1] != op:
            raise ExprSyntaxError(f"expected {op!r}", tok[2])

    def parse(self) -> Node:
        node = self.expr()
        tok = self._peek()
        if tok is not None:
            raise ExprSyntaxError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return node

    def expr(self) -> Node:
        node = self.term()
        while (tok := self._peek()) and tok[0] == "op" and tok[1] in "+-":
            self.pos += 1
            node = _fold_bin(tok[1], node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        while (tok := self._peek()) and tok[0] == "op" and tok[1] in "*/":
            self.pos += 1
            node = _fold_bin(tok[1], node, self.factor())
        return node

    def factor(self) -> Node:
        tok = self._peek()
        if tok and tok[0] == "op" and tok[1] == "-":
            self.pos += 1
            following = self._peek()
            if following and following[0] == "num":  # a signed literal: no recursion
                return _fold_neg(self.power())
            return _fold_neg(self._nested(self.factor, tok[2]))
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        tok = self._peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self.pos += 1
            return Pow(base, self._exponent())
        return base

    def _exponent(self) -> int:
        sign = 1
        tok = self._next()
        if tok[0] == "op" and tok[1] == "-":
            sign = -1
            tok = self._next()
        if tok[0] != "num":
            raise ExprSyntaxError("expected integer exponent", tok[2])
        value = tok[1]
        if value != int(value):
            raise ExprSyntaxError(f"non-integer exponent {value!r}", tok[2])
        return sign * int(value)

    def atom(self) -> Node:
        tok = self._next()
        kind, payload, pos = tok
        if kind == "num":
            return Const(complex(payload))
        if kind == "op" and payload == "(":
            node = self._nested(self.expr, pos)
            self._expect_op(")")
            return node
        if kind == "name":
            name = payload
            if name in CONSTANTS:
                return Const(CONSTANTS[name])
            if name in FUNCTIONS:
                self._expect_op("(")
                arg = self._nested(self.expr, pos)
                self._expect_op(")")
                return Func(name, arg)
            if name.startswith("z") and name[1:].isdigit():
                index = int(name[1:])
                if index < 1:
                    raise ExprSyntaxError(f"invalid variable {name!r}", pos)
                if index > self.dimension:
                    raise ExprSyntaxError(
                        f"variable {name!r} exceeds dimension {self.dimension}", pos
                    )
                return Var(index)
            raise ExprSyntaxError(f"unknown identifier {name!r}", pos)
        raise ExprSyntaxError(f"unexpected token {payload!r}", pos)


def parse(source: str, dimension: int) -> HoloExpr:
    """Parse ``source`` into an expression over variables z1..z{dimension}."""
    if not source or not source.strip():
        raise ExprSyntaxError("empty source", 0)
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    tokens = _tokenize(source)
    root = _Parser(tokens, dimension, len(source)).parse()
    if _tree_depth(root) > MAX_DEPTH:
        raise ExprSyntaxError(f"expression tree deeper than {MAX_DEPTH} levels", 0)
    return HoloExpr(dimension, root)


# node type -> the attributes holding its subtrees
_SUBTREES = {Neg: ("child",), BinOp: ("left", "right"), Pow: ("base",), Func: ("arg",)}


def _tree_depth(root: Node) -> int:
    # Level by level, so that a tree too deep to recurse over is still measured.
    depth, level = 0, [root]
    while level:
        depth += 1
        level = [getattr(node, a) for node in level for a in _SUBTREES.get(type(node), ())]
    return depth


# --------------------------------------------------------------------------
# Canonical printer
# --------------------------------------------------------------------------

# Grammar levels, loosest first: a printed child is parenthesized only when
# its own level is looser than the level its position in the parent needs.
_EXPR, _TERM, _FACTOR, _POWER, _ATOM = range(5)


def _print_const(v: complex) -> tuple[str, int]:
    # Written so that parsing folds the text back into one Const.
    if v.imag == 0.0:
        text = repr(v.real)
        return text, _FACTOR if text.startswith("-") else _ATOM
    if v.real == 0.0:
        return f"{v.imag!r}*i", _TERM
    sign = "+" if v.imag > 0 else "-"
    return f"{v.real!r}{sign}{abs(v.imag)!r}*i", _EXPR


def _print(node: Node) -> tuple[str, int]:
    """Source text of the subtree and its grammar level."""
    if isinstance(node, Var):
        return f"z{node.index}", _ATOM
    if isinstance(node, Const):
        return _print_const(node.value)
    if isinstance(node, Neg):
        return f"-{_child(node.child, _FACTOR)}", _FACTOR
    if isinstance(node, BinOp):
        # left-associative: the right operand binds one level tighter
        level = _EXPR if node.op in "+-" else _TERM
        return f"{_child(node.left, level)}{node.op}{_child(node.right, level + 1)}", level
    if isinstance(node, Pow):
        return f"{_child(node.base, _ATOM)}^{node.exponent}", _POWER
    if isinstance(node, Func):
        return f"{node.name}({_child(node.arg, _EXPR)})", _ATOM
    raise TypeError(f"unknown node {node!r}")


def _child(node: Node, level: int) -> str:
    text, own = _print(node)
    return text if own >= level else f"({text})"


def to_source(expr: HoloExpr) -> str:
    """Canonical textual form with only the parentheses the grammar needs.

    For every e that `parse` returns, ``parse(to_source(e), e.dimension)`` is
    structurally e, and the text nests no deeper than e's tree does.
    """
    return _print(expr.root)[0]


# --------------------------------------------------------------------------
# Evaluation: one forward-mode walk over a batch of points
# --------------------------------------------------------------------------

# Per-point status.  A point keeps its first failure in post-order, the order
# in which evaluating that point alone meets it.
OK, POLE, BRANCH, NONFINITE = 0, 1, 2, 3
_FAILURES = {
    POLE: (PoleError, "division or negative power of a near-zero value"),
    BRANCH: (BranchError, "log applied at 0"),
    NONFINITE: (EvaluationError, "non-finite value (overflow, or a non-finite input)"),
}


def status_error(status: int) -> EvaluationError:
    """The exception a failing point's status stands for."""
    cls, message = _FAILURES[int(status)]
    return cls(message)


@dataclass(frozen=True, eq=False)
class Batch:
    """Values, complex gradients and statuses of an expression at N points."""

    value: np.ndarray  # (N,) complex
    gradient: np.ndarray  # (N, n) complex; (N, 0) when gradients were not asked for
    status: np.ndarray  # (N,) int8: OK or the point's first failure

    def check(self) -> "Batch":
        """Raise the error of the first failing point; otherwise return self."""
        failed = np.flatnonzero(self.status)
        if failed.size:
            raise status_error(self.status[failed[0]])
        return self


class _Walk:
    """Post-order walk of one expression over a point batch.  Each node gives
    (value, gradient, untested): the value is (N,), or (1,) for a subtree
    without variables, the gradient (N, width), (1, width) or a
    broadcastable (width,) row, and `untested` says that the pair may hold a
    non-finite number no test has seen.

    Finiteness is tested at checkpoints, not at every node.  The result of
    +, -, *, /, a nonzero power, exp, sin, cos or log is untested, and so is
    the negation of an untested pair.  A non-finite number stays non-finite
    through negation, +, -, *, sin, cos and positive powers (inf and NaN
    absorb every finite operand there), and can vanish in only four places:
    a divisor (x/inf = 0), the base of a power <= 0 (inf^0 = 1), exp's
    argument (exp(-inf) = 0) and log's argument.  Just before each of them,
    and at the root, every live untested pair is tested: the operands, and
    the left operands of the enclosing binary operators, held in `pending`.
    POLE and BRANCH are marked only after such a test, so each point keeps
    its first failure in post-order, as a test at every node would give.
    A test makes one summing pass per value and gradient column, not
    numpy's slow pass along the short coordinate axis.  Without gradients
    the width is 0 and no gradient arithmetic runs: every gradient is then
    the empty row `zero` or a Var's empty unit row."""

    def __init__(self, Z: np.ndarray, gradient: bool):
        self.Z = Z
        self.width = Z.shape[1] if gradient else 0
        self.units = np.eye(Z.shape[1], self.width, dtype=complex)  # row k: grad z_k
        self.zero = np.zeros(self.width, dtype=complex)
        ok = np.ones(len(Z), dtype=bool)
        for k in range(Z.shape[1]):
            ok &= np.isfinite(Z[:, k])
        self.status = (~ok).view(np.int8) * np.int8(NONFINITE)  # OK is 0
        self.pending = []  # the untested left operands of the binary operators being walked
        self.tests = 0  # checkpoints so far: a pending pair is tested once one passes

    def mark(self, bad: np.ndarray, code: int) -> None:
        if bad.any():
            self.status[bad & (self.status == OK)] = code

    def finite(self, v: np.ndarray, g: np.ndarray) -> None:
        # one summing pass each: a sum is finite when every term is (and may
        # overflow when they all are), so the points are looked at one by one
        # only when it is not
        if np.isfinite(np.add.reduce(v, None)) and (not self.width or np.isfinite(np.add.reduce(g, None))):
            return
        bad = ~np.isfinite(v)
        for k in range(self.width):
            bad = bad | ~np.isfinite(g[..., k])
        self.mark(bad, NONFINITE)

    def checkpoint(self, *operands) -> None:
        """Test every live untested pair: the pending ones, then the operands
        (value, gradient, untested) of the node about to consume them."""
        for v, g in self.pending:
            self.finite(v, g)
        self.pending.clear()
        self.tests += 1
        for v, g, untested in operands:
            if untested:
                self.finite(v, g)

    def chain(self, v: np.ndarray, derivative, g: np.ndarray):
        # chain rule; the derivative is not computed when gradients are not asked for
        return v, derivative()[:, None] * g if self.width else g, True

    def __call__(self, node: Node):
        if isinstance(node, Var):
            return self.Z[:, node.index - 1], self.units[node.index - 1], False
        if isinstance(node, Const):
            # one element, broadcast like a scalar: a constant subtree runs the
            # same numpy loops as a variable one, not Python's complex arithmetic
            return np.full(1, node.value), self.zero, False
        if isinstance(node, Neg):
            v, g, untested = self(node.child)
            return -v, -g if self.width else g, untested
        if isinstance(node, BinOp):
            a, ga, untested = self(node.left)
            if untested:
                self.pending.append((a, ga))
            tests = self.tests
            right = b, gb, _ = self(node.right)
            if node.op == "/":
                self.checkpoint(right)  # the left operand too, if still pending
                self.mark(np.abs(b) < POLE_THRESHOLD, POLE)
                v = a / b
                return v, (ga - v[:, None] * gb) / b[:, None] if self.width else self.zero, True
            if untested and tests == self.tests:  # no checkpoint has tested the left operand
                self.pending.pop()
            if node.op == "*":
                return a * b, a[:, None] * gb + b[:, None] * ga if self.width else self.zero, True
            combine = _ARITHMETIC[node.op]
            return combine(a, b), combine(ga, gb) if self.width else self.zero, True
        if isinstance(node, Pow):
            base = a, ga, _ = self(node.base)
            k = node.exponent
            if k <= 0:
                self.checkpoint(base)
            if k == 0:
                return np.ones_like(a), self.zero, False
            if k < 0:
                self.mark(np.abs(a) < POLE_THRESHOLD, POLE)
            return self.chain(a**k, lambda: k * a ** (k - 1), ga)
        if isinstance(node, Func):
            arg = a, ga, _ = self(node.arg)
            if node.name == "sin":
                return self.chain(np.sin(a), lambda: np.cos(a), ga)
            if node.name == "cos":
                return self.chain(np.cos(a), lambda: -np.sin(a), ga)
            self.checkpoint(arg)
            if node.name == "exp":
                v = np.exp(a)
                return self.chain(v, lambda: v, ga)
            # log: principal branch, undefined at 0
            self.mark(np.abs(a) < POLE_THRESHOLD, BRANCH)
            return self.chain(np.log(a), lambda: 1.0 / a, ga)
        raise TypeError(f"unknown node {node!r}")


def evaluate_batch(expr: HoloExpr, points, gradient: bool = True) -> Batch:
    """Value, complex gradient (when asked for) and status at each row of the
    (N, n) point array.  A row with a non-finite coordinate is NONFINITE.
    Floating-point warnings are silenced; the statuses carry them.  The walk
    reads the points column by column, as fast on row-major points as on an
    (N, n) view of an (n, N) array."""
    try:
        Z = np.asarray(points, dtype=complex)
    except ValueError as exc:  # rows of different lengths
        raise DimensionMismatchError(
            f"points of unequal lengths, expression expects dimension {expr.dimension}"
        ) from exc
    if Z.ndim != 2 or Z.shape[1] != expr.dimension:
        raise DimensionMismatchError(
            f"points of shape {Z.shape}, expression expects dimension {expr.dimension}"
        )
    walk = _Walk(Z, gradient)
    with np.errstate(all="ignore"):
        root = value, grad, _ = walk(expr.root)
        walk.checkpoint(root)
    return Batch(_owned(value, (len(Z),)), _owned(grad, (len(Z), walk.width)), walk.status)


def _owned(a: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """A walk's result as an array of `shape` that the batch alone holds: a
    full-shape array the walk computed is already that; a column of the
    points, a constant or a gradient row is copied out, and an empty result
    is made anew."""
    if a.shape == shape and a.base is None:
        return a
    return np.empty(shape, dtype=complex) if 0 in shape else np.broadcast_to(a, shape).copy()


def evaluate_jet(expr: HoloExpr, z: CPoint) -> Batch:
    """The checked `evaluate_batch` of [z].  Not exported and entered by no
    run: kept only as a fixture of the span test and the trace of the
    benchmark (`perfbench/`), until ROADMAP item 1 moves them."""
    return evaluate_batch(expr, [z]).check()


# --------------------------------------------------------------------------
# Affine reparametrization
# --------------------------------------------------------------------------

def _substitute(node: Node, replacements: dict[int, Node]) -> Node:
    if isinstance(node, Var):
        return replacements[node.index]
    subtrees = {
        a: _substitute(getattr(node, a), replacements) for a in _SUBTREES.get(type(node), ())
    }
    return dataclasses.replace(node, **subtrees) if subtrees else node


def affine_pullback(expr: HoloExpr, base: CPoint, scale: complex) -> HoloExpr:
    """Symbolic AST of zeta -> f(base + scale*zeta); exact, no approximation."""
    if len(base) != expr.dimension:
        raise DimensionMismatchError(
            f"base has dimension {len(base)}, expression expects {expr.dimension}"
        )
    scale = complex(scale)
    if scale == 0:
        raise ValueError("scale must be nonzero")
    replacements = {
        k + 1: BinOp("+", Const(complex(base[k])), BinOp("*", Const(scale), Var(k + 1)))
        for k in range(expr.dimension)
    }
    return HoloExpr(expr.dimension, _substitute(expr.root, replacements))
