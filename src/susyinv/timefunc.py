"""Closed family of real scalar time functions with exact calculus.

A :class:`TimeFunction` is a flat sum of terms ``(coeff, atoms)``: a constant
times at most two atoms, each ``("lin", a, b)`` for ``a*t + b`` or
``("sin" | "cos", omega, delta)`` for ``sin/cos(omega*t + delta)``. A constant
has no atoms; an affine function is one ``lin`` atom with coefficient 1. Sums
fold constants and affine terms into one leading term; products fold
constants, distribute over sums and pair two atoms. Calculus goes term by
term and stays in the family, by parts for affine*sinusoid and by the
product-to-sum rules for sinusoid*sinusoid, except for the antiderivative of
affine*affine, which would need a cubic. Antiderivatives are normalized so
that F(0) = 0. Each function builds its derivative and antiderivative once.

The textual grammar accepted by :func:`parse`::

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | atom
    atom   := NUMBER | 'pi' | 't' | 'sin' '(' expr ')' | 'cos' '(' expr ')'
              | '(' expr ')'
"""

import ast
import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

Atom = tuple[str, float, float]
Term = tuple[float, tuple[Atom, ...]]

OTHER = {"sin": ("cos", 1.0), "cos": ("sin", -1.0)}  # d/dx kind(x) = sign * other(x)


class ClosedFamilyError(ValueError):
    """The requested operation leaves the closed function family."""


class TimeFunctionSyntaxError(ValueError):
    pass


@dataclass(frozen=True)
class TimeFunction:
    """Sum of ``(coeff, atoms)`` terms; see the module docstring."""

    terms: tuple[Term, ...]

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        values = [_term_value(term, arr) for term in self.terms]
        out = values[0] if len(values) == 1 else sum(values, np.zeros_like(arr))
        return float(out) if arr.ndim == 0 else out

    def derivative(self) -> "TimeFunction":
        return self._derivative

    def antiderivative(self) -> "TimeFunction":
        """Antiderivative F with F(0) = 0 (exactly, after rounding polish)."""
        return self._antiderivative

    @cached_property
    def _derivative(self) -> "TimeFunction":
        return _termwise(_term_derivative, self)

    @cached_property
    def _antiderivative(self) -> "TimeFunction":
        g = _termwise(_term_integral, self)
        for _ in range(5):
            z = float(g(0.0))
            if z == 0.0:
                break
            g = add(g, const(-z))
        return g

    def __str__(self):
        return " + ".join(map(_term_str, self.terms))


def _atom_value(atom: Atom, t: np.ndarray):
    kind, a, b = atom
    x = a * t + b
    return x if kind == "lin" else np.sin(x) if kind == "sin" else np.cos(x)


def _term_value(term: Term, t: np.ndarray):
    coeff, atoms = term
    if not atoms:
        return coeff * np.ones_like(t)
    value = _atom_value(atoms[0], t)
    if len(atoms) == 2:
        value = value * _atom_value(atoms[1], t)
    return value if coeff == 1.0 else coeff * value


def _atom_str(atom: Atom) -> str:
    kind, a, b = atom
    x = f"{a:g}*t" if b == 0.0 else f"{a:g}*t + {b:g}"
    return x if kind == "lin" else f"{kind}({x})"


def _term_str(term: Term) -> str:
    coeff, atoms = term
    body = "*".join(f"({_atom_str(a)})" for a in atoms) if len(atoms) == 2 \
        else _atom_str(atoms[0]) if atoms else f"{coeff:g}"
    return body if coeff == 1.0 or not atoms else f"{coeff:g}*({body})"


def _one(*atoms: Atom) -> TimeFunction:  # the product of one or two atoms
    return TimeFunction(((1.0, atoms),))


def const(value: float) -> TimeFunction:
    return TimeFunction(((float(value), ()),))


def linear(slope: float, intercept: float = 0.0) -> TimeFunction:
    return _one(("lin", float(slope), float(intercept)))


def _trig(kind: str, omega: float, delta: float) -> TimeFunction:
    if omega == 0.0:  # the sinusoid is a constant
        return const(math.sin(delta) if kind == "sin" else math.cos(delta))
    return _one((kind, float(omega), float(delta)))


def _affine(term: Term) -> tuple[float, float] | None:
    """(slope, intercept) of a constant or affine term; None for any other."""
    coeff, atoms = term
    if not atoms:
        return 0.0, coeff
    if len(atoms) == 1 and atoms[0][0] == "lin":
        return atoms[0][1], atoms[0][2]
    return None


def _termwise(rule, f: TimeFunction) -> TimeFunction:
    """``rule`` on each term of f, summed; a single term's result as it is."""
    return rule(f.terms[0]) if len(f.terms) == 1 else add(*map(rule, f.terms))


def add(*fs: TimeFunction) -> TimeFunction:
    """Flattening sum that folds constants and affine terms into one leading term."""
    flat: list[Term] = []
    slope = intercept = 0.0
    for term in (term for f in fs for term in f.terms):
        ab = _affine(term)
        if ab is None:
            flat.append(term)
        else:
            slope += ab[0]
            intercept += ab[1]
    if slope != 0.0:
        flat.insert(0, (1.0, (("lin", slope, intercept),)))
    elif intercept != 0.0 or not flat:
        flat.insert(0, (intercept, ()))
    return TimeFunction(tuple(flat))


def scale(coeff: float, f: TimeFunction) -> TimeFunction:
    if coeff == 0.0:
        return const(0.0)
    if coeff == 1.0:
        return f

    def scaled(term: Term) -> TimeFunction:
        k, atoms = term
        if atoms and atoms[0][0] == "lin" and len(atoms) == 1:
            return linear(coeff * atoms[0][1], coeff * atoms[0][2])
        if atoms and coeff * k == 0.0:  # the coefficient underflowed
            return const(0.0)
        return TimeFunction(((coeff * k, atoms),))
    return _termwise(scaled, f)


def multiply(f: TimeFunction, g: TimeFunction) -> TimeFunction:
    """Product combinator: folds constants, distributes over sums, pairs atoms."""
    (fc, fa), (gc, ga) = f.terms[0], g.terms[0]
    # The coefficient of a constant or scaled factor comes out of the product.
    if len(f.terms) == 1 and (not fa or fc != 1.0):
        return scale(fc, multiply(_one(*fa), g) if fa else g)
    if len(g.terms) == 1 and (not ga or gc != 1.0):
        return scale(gc, multiply(f, _one(*ga)) if ga else f)
    if len(f.terms) > 1:
        return add(*(multiply(TimeFunction((term,)), g) for term in f.terms))
    if len(g.terms) > 1:
        return add(*(multiply(f, TimeFunction((term,))) for term in g.terms))
    if len(fa) == len(ga) == 1:
        return _one(*fa, *ga)
    raise ClosedFamilyError(f"product ({f})*({g}) exceeds the depth-1 product limit")


def _atom_derivative(atom: Atom) -> TimeFunction:
    kind, a, b = atom
    if kind == "lin":
        return const(a)
    other, sign = OTHER[kind]
    return scale(sign * a, _one((other, a, b)))


def _term_derivative(term: Term) -> TimeFunction:
    coeff, atoms = term
    if not atoms:
        return const(0.0)
    if len(atoms) == 1:
        return scale(coeff, _atom_derivative(atoms[0]))
    left, right = map(_one, atoms)
    return scale(coeff, add(multiply(_atom_derivative(atoms[0]), right),
                            multiply(left, _atom_derivative(atoms[1]))))


def _term_integral(term: Term) -> TimeFunction:
    """An antiderivative of one term, before the F(0) = 0 normalization."""
    coeff, atoms = term
    kinds = tuple(atom[0] for atom in atoms)
    if not atoms:
        return linear(coeff, 0.0)
    if kinds == ("lin", "lin"):
        raise ClosedFamilyError(f"antiderivative of {_term_str((1.0, atoms))} leaves the "
                                "closed family (it would require a cubic)")
    if len(atoms) == 1:
        kind, a, b = atoms[0]
        if kind == "lin":  # (a/2) t^2 + b t
            return add(scale(a / 2, multiply(linear(1.0), linear(1.0))), linear(b, 0.0))
        other, sign = OTHER[kind]
        return scale(coeff, scale(-sign / a, _one((other, a, b))))
    if "lin" in kinds:
        # By parts: int (a t + b) s(t) = (a t + b) S(t) - a int S, with S' = s.
        lin, (kind, w, d) = atoms if kinds[0] == "lin" else atoms[::-1]
        other, sign = OTHER[kind]
        try:
            by_parts = lin[1] / w ** 2
        except (ZeroDivisionError, OverflowError):  # w ** 2 underflows to zero or overflows
            raise ClosedFamilyError(f"antiderivative of {_term_str((1.0, atoms))} needs "
                                    f"{lin[1]:g}/({w:g})^2, outside the float range") from None
        return scale(coeff, add(scale(-sign / w, _one(lin, (other, w, d))),
                                scale(by_parts, _one((kind, w, d)))))
    return scale(coeff, _termwise(_term_integral, _product_to_sum(*atoms)))


def _product_to_sum(f: Atom, g: Atom) -> TimeFunction:
    """Rewrite sinusoid*sinusoid as a sum of sinusoids."""
    if (f[0], g[0]) == ("cos", "sin"):
        f, g = g, f
    wp, dp, wm, dm = f[1] + g[1], f[2] + g[2], f[1] - g[1], f[2] - g[2]
    if f[0] == g[0]:  # (cos(x - y) -+ cos(x + y))/2 for sin*sin and cos*cos
        return add(scale(0.5, _trig("cos", wm, dm)),
                   scale(-0.5 if f[0] == "sin" else 0.5, _trig("cos", wp, dp)))
    return add(scale(0.5, _trig("sin", wp, dp)), scale(0.5, _trig("sin", wm, dm)))


NUMBER = re.compile(r"\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")
# Characters outside the grammar; Python would read '#' as a comment and ',' in a call.
_FOREIGN = re.compile(r"[^\s0-9A-Za-z_.()+*-]")
_LEADING_ZEROS = re.compile(r"(?<![\w.])0+(?=\d)")  # NUMBER allows 007, Python does not


def parse(text: str) -> TimeFunction:
    """Parse the config-file grammar into a TimeFunction."""
    stripped = text.strip()
    if len(stripped) >= 2 and stripped[0] == stripped[-1] and stripped[0] in "\"'":
        stripped = stripped[1:-1]
    if not stripped:
        raise TimeFunctionSyntaxError("empty time-function expression")
    bad = _FOREIGN.search(stripped)
    if bad:
        raise TimeFunctionSyntaxError(f"unexpected character {bad.group()!r} in {stripped!r}")
    source = _LEADING_ZEROS.sub("", " ".join(stripped.split()))
    try:
        return _build(ast.parse(source, mode="eval").body, source)
    except SyntaxError as exc:
        raise TimeFunctionSyntaxError(f"{exc.msg} in {stripped!r}") from None
    except RecursionError:  # about a thousand terms in one sum, or as deep a nesting
        raise TimeFunctionSyntaxError(f"expression nested too deeply: {stripped!r}") from None


def _build(node: ast.expr, source: str) -> TimeFunction:
    """The TimeFunction of one node, children left to right; ``source`` is one ASCII line."""
    text = source[node.col_offset:node.end_col_offset]
    match node:
        case ast.Constant() if NUMBER.fullmatch(text):
            return const(float(text))
        case ast.Name(id="t" | "pi" as name):
            return linear(1.0) if name == "t" else const(math.pi)
        case ast.UnaryOp(op=ast.USub(), operand=operand):
            return scale(-1.0, _build(operand, source))
        case ast.BinOp(op=ast.Add() | ast.Sub() | ast.Mult() as op):
            left, right = _build(node.left, source), _build(node.right, source)
            if isinstance(op, ast.Mult):
                return multiply(left, right)
            return add(left, right if isinstance(op, ast.Add) else scale(-1.0, right))
        case ast.Call(func=ast.Name(id="sin" | "cos" as kind), args=[arg], keywords=[]) \
                if not isinstance(arg, ast.Starred):
            inner = _build(arg, source)
            ab = _affine(inner.terms[0]) if len(inner.terms) == 1 else None
            if ab is None:
                raise ClosedFamilyError(f"sinusoid arguments must be affine in t, got {inner}")
            return _trig(kind, *ab)
    raise TimeFunctionSyntaxError(f"unexpected {text!r} in {source!r}")
