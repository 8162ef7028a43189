"""Whittaker gauge machinery.

An eigenfunction candidate has the shape

    psi = prefactor(z, E) / sqrt(H(z, E)) * ( A * W(mu, nu, f) + B * W'(mu, nu, f) )

where W is the Whittaker solution of y'' + (-1/4 + mu/x + (1/4 - nu^2)/x^2) y = 0.
Everything here is computed coordinate-wise in the rank-2 module with basis
{W, W'}: differentiation closes on the module via the Whittaker equation, so
psi''/psi is a rational-function computation and never touches an actual
special function.

To stay inside one sparse rational function field QQ(z, E, params) the
coordinates are rescaled per case so that the square roots (sqrt(-E) in the
pullback 2*sqrt(-E)*z, the quarter-powers of z+E in the Airy case) cancel
out of the reduction data.  Concretely, with coordinates (A, C):

    d(A, C) = (A' + C*S,  rf*A + C' + rr*C)

for case constants S (the rescaled W''-reduction coefficient), rf (rescaled
pullback derivative) and rr (rescaling drift), all rational in z and E.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import sympy as sp
from sympy import QQ

from .algebra import E, normalize, nu, z
from .errors import (
    DegreeBoundViolated,
    EDependentPotential,
    InconsistentRatio,
    MixedFactor,
    UnsolvableSystem,
)


class _Infinity:
    """The distinguished gauge value M = infinity (psi = prefactor * W)."""

    def __repr__(self):
        return "M_INFINITY"


M_INFINITY = _Infinity()


@dataclass(frozen=True)
class GaugeCase:
    """One of the four eigenfunction shapes.

    ``pullback`` and ``mu`` are kept for documentation/rendering; the actual
    reduction (H included) uses the rationalized ``S``/``rf``/``rr`` data
    built in :func:`_case_data`.
    """

    tag: str
    pullback: sp.Expr
    mu: sp.Expr


_GAMMA = sp.sqrt(-E)
_S3 = sp.sqrt(z + E) ** 3

CASES = {
    "C1": GaugeCase("C1", z ** 2, E / 4),
    "C2": GaugeCase("C2", 2 * _GAMMA * z, 1 / (2 * _GAMMA)),
    "C3": GaugeCase("C3", 2 * _GAMMA * z, sp.Integer(0)),
    "C4": GaugeCase("C4", sp.Rational(4, 3) * sp.I * _S3, sp.Integer(0)),
}


def H_of(case: GaugeCase, M, nu_val=nu):
    """The under-root denominator function of the eigenfunction formula."""
    if M is M_INFINITY:
        raise ValueError("H is bypassed on the M = infinity path")
    _, _, data = _reduction(case, M, nu_val)
    return normalize(data[0].as_expr())


@dataclass(frozen=True)
class HStructure:
    """Factorization H = w(E) * P(z) / Q(z, E) with w's root multiset."""

    w: sp.Expr
    P: sp.Expr
    Q: sp.Expr
    w_roots: tuple  # of (root expression, multiplicity)


def check_H_structure(H, M) -> HStructure:
    """Verify the structure condition and extract the energy polynomial w.

    The numerator of H must factor over the coefficient field into a pure-E
    part w and a pure-z part P; a factor genuinely mixing z and E means M
    does not define a potential.  The degree bound
    deg_E w >= deg_E num(M) + deg_E den(M) + 1 is enforced.
    """
    Hc = normalize(H)
    num, den = sp.fraction(Hc)
    const, factors = sp.factor_list(num)
    w = sp.sympify(const)
    P = sp.Integer(1)
    roots = []
    for fac, mult in factors:
        has_z = fac.has(z)
        has_E = fac.has(E)
        if has_z and has_E:
            raise MixedFactor("mixed factor %s in H numerator" % fac)
        if has_E:
            w *= fac ** mult
            deg = sp.degree(fac, E)
            if deg == 1:
                poly = sp.Poly(fac, E)
                root = normalize(-poly.nth(0) / poly.nth(1))
                roots.append((root, int(mult)))
            else:
                raise UnsolvableSystem(
                    "irreducible E-factor of degree %s in w" % deg)
        elif has_z:
            P *= fac ** mult
        else:
            w *= fac ** mult
    Mc = normalize(sp.sympify(M))
    mnum, mden = sp.fraction(Mc)
    bound = _deg_E(mnum) + _deg_E(mden) + 1
    if _deg_E(sp.expand(w)) < bound:
        raise DegreeBoundViolated(
            "deg_E w = %d below bound %d" % (_deg_E(sp.expand(w)), bound))
    return HStructure(w=sp.expand(w), P=sp.expand(P), Q=sp.expand(den),
                      w_roots=tuple(roots))


def _deg_E(expr):
    d = sp.degree(expr, E)
    return int(d) if d != -sp.oo else 0


def _field_for(exprs):
    names = {"z", "E"}
    for e in exprs:
        if e is None or e is M_INFINITY:
            continue
        names |= {s.name for s in sp.sympify(e).free_symbols}
    order = ["z", "E"] + sorted(names - {"z", "E"})
    field = sp.field(",".join(order), QQ)
    ring = field[0]
    gens = dict(zip(order, field[1:]))
    return ring, gens


def _case_data(case, M, nu_val, ring, gens):
    """Rationalized rank-2 module data for one case.

    Returns (H, v, S, rf, rr, L) as field elements; H is None on the
    M = infinity path.  L is the logarithmic derivative of the full scalar
    prefactor prefactor/sqrt(H).
    """
    conv = ring.from_expr
    zf, Ef = gens["z"], gens["E"]
    one, zero = ring.one, ring.zero
    quarter = one / 4
    nuf = conv(nu_val)
    finite = M is not M_INFINITY
    Mf = conv(M) if finite else None

    def dz(u):
        return u.diff(zf)

    if case.tag == "C1":
        S = 2 * zf * (quarter - Ef / (4 * zf ** 2)
                      - (quarter - nuf ** 2) / zf ** 4)
        rf, rr = 2 * zf, zero
        if finite:
            H = (Mf ** 2 * zf ** 2 + Mf * zf - dz(Mf) * zf ** 2 - zf ** 4
                 + zf ** 2 * Ef - 4 * nuf ** 2 + 1)
            v = (Mf / (2 * zf), one)
            L = (one * 3 / 2) / zf - dz(H) / (2 * H)
        else:
            H, v, L = None, (one, zero), (-one / 2) / zf
    elif case.tag in ("C2", "C3"):
        extra = 4 * zf if case.tag == "C2" else zero
        mu_term = 1 / (2 * Ef * zf) if case.tag == "C2" else zero
        S = one / 2 + mu_term + (quarter - nuf ** 2) / (2 * Ef * zf ** 2)
        rf, rr = -2 * Ef, zero
        if finite:
            H = (4 * Mf ** 2 * zf ** 2 + 4 * zf ** 2 * Ef
                 - 4 * dz(Mf) * zf ** 2 - 4 * nuf ** 2 + extra + 1)
            v = (Mf / 2, -Ef)
            L = 1 / zf - dz(H) / (2 * H)
        else:
            H, v, L = None, (one, zero), zero
    elif case.tag == "C4":
        S = quarter + (one * 5 / 64) / (zf + Ef) ** 3
        rf, rr = -4 * (zf + Ef), -1 / (2 * (zf + Ef))
        if finite:
            H = Mf ** 2 + Ef - dz(Mf) + zf
            v = ((1 - 4 * Mf * (zf + Ef)) / 8, 2 * (zf + Ef) ** 2)
            L = (-one * 5 / 4) / (zf + Ef) - dz(H) / (2 * H)
        else:
            H, v, L = None, (one, zero), (-one / 4) / (zf + Ef)
    else:
        raise ValueError(case.tag)
    return H, v, S, rf, rr, L


def _second_derivative_coords(v, S, rf, rr, L, zf):
    """Coordinates of psi''/prefactor in the {W, W'} basis."""

    def dz(u):
        return u.diff(zf)

    def dmod(w):
        aa, cc = w
        return (dz(aa) + cc * S, rf * aa + dz(cc) + rr * cc)

    dv = dmod(v)
    ddv = dmod(dv)
    Lp = dz(L)
    N1 = ddv[0] + 2 * L * dv[0] + (Lp + L ** 2) * v[0]
    N2 = ddv[1] + 2 * L * dv[1] + (Lp + L ** 2) * v[1]
    return N1, N2


def _reduction(case, M, nu_val):
    """The field of (M, nu) and the module data of the case in it."""
    nu_val = sp.sympify(nu_val)
    ring, gens = _field_for([M, nu_val])
    return ring, gens, _case_data(case, M, nu_val, ring, gens)


def _potential(ring, gens, data):
    """V from the module data, certified as described in :func:`V_of`."""
    _, v, S, rf, rr, L = data
    N1, N2 = _second_derivative_coords(v, S, rf, rr, L, gens["z"])
    VpE = -N1 / v[0] if v[0] != ring.zero else -N2 / v[1]
    for r in (N1 + VpE * v[0], N2 + VpE * v[1]):
        if r != ring.zero:
            raise InconsistentRatio(
                "nonzero Schroedinger residual: %s" % normalize(r.as_expr()))
    V = VpE - gens["E"]
    # generator order is (z, E, params...): index 1 is the E-degree
    if V.numer.degree(1) > 0 or V.denom.degree(1) > 0:
        raise EDependentPotential(normalize(V.as_expr()))
    return normalize(V.as_expr())


def V_of(case: GaugeCase, M, nu_val=nu):
    """Reconstruct the potential from a gauge (or from M = infinity).

    V + E = -psi''/psi is read off psi's first nonzero coordinate.  The
    certificate: psi'' + (V + E) psi vanishes in both coordinates (else
    :class:`InconsistentRatio`) and V is free of E after cancellation (else
    :class:`EDependentPotential`, with V as witness).
    """
    return _potential(*_reduction(case, M, nu_val))


def certify(case: GaugeCase, M, nu_val=nu):
    """``(H, structure, V)`` of a gauge from one reduction: H is the field
    element of :func:`_case_data`, checked by :func:`check_H_structure`; V is
    certified as in :func:`V_of`.  At M = infinity H and structure are None.
    """
    ring, gens, data = _reduction(case, M, nu_val)
    if M is M_INFINITY:
        return None, None, _potential(ring, gens, data)
    H = normalize(data[0].as_expr())
    return H, check_H_structure(H, M), _potential(ring, gens, data)


def ode_residual_generic(case: GaugeCase, M, V, nu_val=nu) -> Optional[sp.Expr]:
    """Residual of psi'' + (V + E) psi in the {W, W'} module.

    Returns None when both coordinates vanish identically, otherwise the
    first nonzero coordinate as witness.
    """
    nu_val = sp.sympify(nu_val)
    ring, gens = _field_for([M, nu_val, V])
    zf, Ef = gens["z"], gens["E"]
    _, v, S, rf, rr, L = _case_data(case, M, nu_val, ring, gens)
    N1, N2 = _second_derivative_coords(v, S, rf, rr, L, zf)
    Vf = ring.from_expr(V)
    r1 = N1 + (Vf + Ef) * v[0]
    r2 = N2 + (Vf + Ef) * v[1]
    if r1 == ring.zero and r2 == ring.zero:
        return None
    witness = r1 if r1 != ring.zero else r2
    return normalize(witness.as_expr())
