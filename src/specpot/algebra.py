"""Exact arithmetic layer.

Everything downstream works with sympy expressions over the fixed symbol set
``z, E`` (the independent and spectral variables) and the coefficient symbols
``nu, a, b, c, d``.  Closed-form eigenfunctions additionally use ``log(z)``,
``sqrt(z)``, ``sqrt(-E)``, ``sqrt(z+E)``, ``I`` and a single exponential
carrier ``exp(q)`` with rational ``q``; sympy's derivation already implements
the required differentiation rules for all of these, so this module only adds
canonical forms, exact ``nu``-substitution and truncated E-series arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import sympy as sp

from .errors import (
    NonRationalCoefficient,
    PoleAtPoint,
    ZeroDenominator,
    ZeroLeadingCoefficient,
)

z, E, nu, a, b, c, d = sp.symbols("z E nu a b c d")

#: symbols the expression grammar knows about
SYMBOLS = {"z": z, "E": E, "nu": nu, "a": a, "b": b, "c": c, "d": d}


def normalize(f):
    """Canonical representative of a rational expression.

    Idempotent; two rational functions are equal iff their normalized
    difference is the zero expression.
    """
    f = sp.sympify(f)
    g = sp.cancel(sp.together(f))
    num, den = sp.fraction(g)
    if den == 0:
        raise ZeroDenominator(str(f))
    return g


def rat_equal(f, g):
    """Decide equality of two rational expressions via canonical forms."""
    return normalize(sp.together(sp.sympify(f) - sp.sympify(g))) == 0


def differentiate(x, variable="z"):
    """The derivation d/dz (or d/dE) extended to the whole tower."""
    var = SYMBOLS[variable] if isinstance(variable, str) else variable
    return sp.diff(sp.sympify(x), var)


def eval_nu(x, nu0):
    """Substitute ``nu = nu0`` after full cancellation.

    Cancelling first makes removable nu-singularities evaluate finitely,
    which is exactly the limit process used for confluent interpolation
    nodes.  A genuine pole raises :class:`PoleAtPoint`.
    """
    nu0 = sp.Rational(nu0)
    if isinstance(x, ESeries):
        return ESeries(x.order, tuple(eval_nu(cc, nu0) for cc in x.coeffs))
    if isinstance(x, (list, tuple)):
        return type(x)(eval_nu(v, nu0) for v in x)
    expr = sp.sympify(x)
    if not expr.has(nu):
        return expr
    g = sp.cancel(sp.together(expr))
    num, den = sp.fraction(g)
    den0 = sp.cancel(den.subs(nu, nu0))
    if den0 == 0:
        raise PoleAtPoint("nu = %s" % nu0)
    return sp.cancel(num.subs(nu, nu0) / den0)


@dataclass(frozen=True)
class ESeries:
    """Truncated power series in E: ``sum coeffs[j] * E**j + O(E**order)``."""

    order: int
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.order:
            raise ValueError("coefficient count must equal truncation order")

    @staticmethod
    def from_list(coeffs):
        return ESeries(len(coeffs), tuple(sp.sympify(cc) for cc in coeffs))

    def __add__(self, other):
        n = min(self.order, other.order)
        return ESeries(n, tuple(
            sp.cancel(self.coeffs[j] + other.coeffs[j]) for j in range(n)))

    def __mul__(self, other):
        n = min(self.order, other.order)
        return ESeries(n, tuple(
            sp.cancel(sum(self.coeffs[i] * other.coeffs[j - i]
                          for i in range(j + 1)))
            for j in range(n)))

    def inverse(self):
        if sp.cancel(self.coeffs[0]) == 0:
            raise ZeroLeadingCoefficient("E^0 coefficient is zero")
        inv = [sp.cancel(1 / self.coeffs[0])]
        for j in range(1, self.order):
            inv.append(sp.cancel(-inv[0] * sum(
                self.coeffs[i] * inv[j - i] for i in range(1, j + 1))))
        return ESeries(self.order, tuple(inv))

    def equal(self, other):
        n = min(self.order, other.order)
        return all(rat_equal(self.coeffs[j], other.coeffs[j]) for j in range(n))


# Internal chart for series with sqrt(z)/log(z) coefficients: substituting
# z = w**2 (w > 0) turns sqrt(z) into the polynomial generator w, and log z
# becomes an inert symbol whose z-derivative is 1/z.  All series arithmetic
# then happens in a plain rational function field, which is what makes the
# log-derivative both fast and decidable.
_W = sp.Dummy("w", positive=True)
_LS = sp.Dummy("Lz")


def _to_chart(expr):
    return sp.cancel(sp.sympify(expr).subs(sp.log(z), _LS).subs(z, _W ** 2))


def _chart_dz(f):
    return sp.cancel(f.diff(_W) / (2 * _W) + f.diff(_LS) / _W ** 2)


def _from_chart(f, context=""):
    f = sp.cancel(f)
    if f.has(_LS):
        raise NonRationalCoefficient(
            "log z survives in series log-derivative %s" % context)
    if sp.cancel(f - f.subs(_W, -_W)) != 0:
        raise NonRationalCoefficient(
            "sqrt z survives in series log-derivative %s" % context)
    return sp.cancel(f.subs(_W, sp.sqrt(z)))


def series_log_derivative(Y: ESeries) -> ESeries:
    """Return ``-Y'/Y`` truncated at the order of ``Y``.

    Coefficients may contain ``sqrt(z)`` and ``log(z)``; the result is
    demoted to rational-in-z coefficients, and a residual root or log term
    raises :class:`NonRationalCoefficient` (this is the degree-constraint
    violation signal for the log-series family).
    """
    n = Y.order
    cs = [_to_chart(cc) for cc in Y.coeffs]
    if cs[0] == 0:
        raise ZeroLeadingCoefficient("E^0 coefficient is zero")
    inv = [sp.cancel(1 / cs[0])]
    for j in range(1, n):
        inv.append(sp.cancel(-inv[0] * sum(
            cs[i] * inv[j - i] for i in range(1, j + 1))))
    dcs = [_chart_dz(cc) for cc in cs]
    out = []
    for j in range(n):
        mj = sp.cancel(sum(-dcs[i] * inv[j - i] for i in range(j + 1)))
        out.append(_from_chart(mj, context="(E^%d coefficient)" % j))
    return ESeries(n, tuple(out))
