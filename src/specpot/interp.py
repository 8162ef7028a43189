"""Rational interpolation in E over rational functions of z, and Pade forms.

Both solve one homogeneous linear system for the coefficients of N and D,
as a sparse ``DomainMatrix`` over the fraction field of the data (for
example ZZ(z, nu) or ZZ(z, a, b)).  N and D come back as polynomials in E
over that field, are checked there, and become an expression only once,
as the canonical form of N/D.

Degree conventions: with n data points (or series order n) the gauge has
numerator E-degree floor(n/2) and denominator E-degree floor((n-1)/2).
"""

from __future__ import annotations

from dataclasses import dataclass

import sympy as sp
from sympy.polys.constructor import construct_domain
from sympy.polys.matrices import DomainMatrix

from .algebra import E, ESeries, normalize
from .errors import DuplicateNode, UnsolvableSystem


@dataclass(frozen=True)
class InterpNode:
    """One interpolation datum: the gauge value at a fixed energy.

    ``energy`` is an exact expression in nu; ``value`` is rational in z only.
    """

    energy: sp.Expr
    value: sp.Expr

    def __post_init__(self):
        object.__setattr__(self, "energy", sp.sympify(self.energy))
        object.__setattr__(self, "value", sp.sympify(self.value))


@dataclass(frozen=True)
class DegreeSpec:
    num_deg: int
    den_deg: int

    @staticmethod
    def for_count(n: int) -> "DegreeSpec":
        return DegreeSpec(n // 2, (n - 1) // 2)


def _gauge(K, rows, num_deg):
    """N and D, polynomials in E over the field K, from the first kernel
    vector of the homogeneous system ``rows`` (entries in K), whose first
    num_deg + 1 columns hold N's coefficients and the rest D's; None when
    the kernel is trivial.
    """
    null = DomainMatrix(rows, (len(rows), len(rows[0])), K) \
        .to_sparse().nullspace()
    if not null.shape[0]:
        return None
    vec = null.to_list()[0]
    ring = sp.ring([E], K)[0]
    return (ring.from_list(vec[num_deg::-1]),
            ring.from_list(vec[:num_deg:-1]))


def _powers(K, e, k):
    """[1, e, ..., e^k] in K; a zero field element refuses 0**0."""
    out = [K.one]
    for _ in range(k):
        out.append(out[-1] * e)
    return out


def _at(P, e):
    """P(e) by Horner's rule, for the same reason as :func:`_powers`."""
    value = P.ring.domain.zero
    for c in P.to_dense():
        value = value * e + c
    return value


def rat_interpolate(nodes) -> sp.Expr:
    """Recover the gauge M(z, E) from its values at the node energies.

    Solves N(E_i) - v_i * D(E_i) = 0 for N, D of E-degrees
    :meth:`DegreeSpec.for_count`.  Any two nonzero kernel vectors give the
    same N/D, since N1*D2 - N2*D1 has E-degree below n and vanishes at all n
    nodes.  After cancelling gcd(N, D) every node is re-checked: D(E_i) != 0
    and N(E_i) = v_i * D(E_i), else :class:`UnsolvableSystem`.
    """
    n = len(nodes)
    if n < 1:
        raise UnsolvableSystem("at least one node required")
    K, data = construct_domain([nd.energy for nd in nodes]
                               + [nd.value for nd in nodes], field=True)
    energies, values = data[:n], data[n:]
    for i in range(n):
        for j in range(i + 1, n):
            if energies[i] == energies[j]:
                raise DuplicateNode("energies %s and %s coincide" %
                                    (nodes[i].energy, nodes[j].energy))
    spec = DegreeSpec.for_count(n)
    rows = []
    for e, v in zip(energies, values):
        pw = _powers(K, e, spec.num_deg)
        rows.append(pw + [-v * p for p in pw[:spec.den_deg + 1]])
    N, D = _gauge(K, rows, spec.num_deg)
    N, D = N.cancel(D)
    for e, v in zip(energies, values):
        d = _at(D, e)
        if d == K.zero or _at(N, e) != v * d:
            raise UnsolvableSystem(
                "no rational interpolant with E-degrees (%d, %d)" %
                (spec.num_deg, spec.den_deg))
    return normalize(N.as_expr() / D.as_expr())


def pade_from_series(Y: ESeries, spec: DegreeSpec) -> sp.Expr:
    """Pade approximant of a truncated E-series with rational-in-z coefficients.

    Solves the rows of D*Y - N mod E^n.  A kernel vector is accepted when
    D(0) != 0 and D*Y = N mod E^n; otherwise (or on a trivial kernel) the
    denominator degree is lowered by one and the solve retried, so the
    achieved degrees are readable off the result.
    """
    n = Y.order
    if n < spec.num_deg + spec.den_deg + 1:
        raise UnsolvableSystem(
            "series order %d too small for degrees (%d, %d)" %
            (n, spec.num_deg, spec.den_deg))
    K, ys = construct_domain(list(Y.coeffs), field=True)
    for den_deg in range(spec.den_deg, -1, -1):
        rows = [[K.one if i == j else K.zero for i in range(spec.num_deg + 1)]
                + [-ys[j - i] if j >= i else K.zero for i in range(den_deg + 1)]
                for j in range(n)]
        found = _gauge(K, rows, spec.num_deg)
        if found is None:
            continue
        N, D = found
        series = D.ring.from_list(ys[::-1])
        if D.coeff(1) != K.zero and \
                all(m[0] >= n for m in (D * series - N).monoms()):
            return normalize(N.as_expr() / D.as_expr())
    raise UnsolvableSystem("no Pade form within degrees (%d, %d)" %
                           (spec.num_deg, spec.den_deg))
