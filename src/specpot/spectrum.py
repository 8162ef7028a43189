"""Discrete spectra: candidate energies, exact Liouvillian eigenfunctions,
and square-integrability classification on the real line and half-lines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import sympy as sp
from sympy.polys.matrices import DomainMatrix

from .algebra import E as Esym, normalize, z
from .errors import DegreeCapExceeded, NonzeroResidual, NoSolution, SymbolicNu
from .families import PotentialResult
from .gauge import _field_for

INTERVALS = ("R", "R+", "R-")


@dataclass(frozen=True)
class CandidateSet:
    """Candidate energies with provenance, sorted and deduplicated.

    ``degenerate`` lists the energies at which H(z, E0) vanishes
    identically, i.e. where the eigenfunction formula itself breaks down
    (the gauge-accident energies).
    """

    energies: Tuple  # of (Rational, tuple of provenance tuples)
    degenerate: Tuple


@dataclass(frozen=True)
class EigenPair:
    E0: sp.Rational
    carrier: sp.Expr     # the exponent q(z)
    num: sp.Expr         # numerator polynomial
    den: sp.Expr         # fixed denominator from the potential's poles
    l2: Dict[str, bool] = field(default_factory=dict)

    @property
    def psi(self):
        return sp.exp(self.carrier) * self.num / self.den


def _lemma_energies(result: PotentialResult, bound: int):
    """The Lemma-formula energies with k <= bound at the result's numeric
    nu, sorted, each with its sorted provenance tuples."""
    if result.family not in ("1", "2"):
        raise SymbolicNu("candidate enumeration applies to families 1 and 2")
    nu0 = sp.sympify(result.nu)
    if not nu0.is_Rational:
        raise SymbolicNu("nu must be a numeric rational")
    found = {}
    if result.family == "1":
        for k in range(bound + 1):
            for e1 in (1, -1):
                for e2 in (1, -1):
                    E0 = sp.Rational(e1 * (4 * k + 2) + 4 * e2 * nu0)
                    found.setdefault(E0, set()).add((k, e1, e2))
    else:
        for k in range(bound + 1):
            for e in (1, -1):
                m = 2 * e * nu0 + 2 * k + 1
                if m == 0:
                    continue
                E0 = sp.Rational(-1 / m ** 2)
                found.setdefault(E0, set()).add((k, e))
    return tuple(sorted(
        ((E0, tuple(sorted(prov))) for E0, prov in found.items()),
        key=lambda it: it[0]))


def enumerate_candidates(result: PotentialResult, bound: int) -> CandidateSet:
    """All Lemma-formula energies with k <= bound at the result's numeric nu,
    with the gauge-accident energies among them."""
    energies = _lemma_energies(result, bound)
    degenerate = []
    if result.H is not None:
        for E0, _prov in energies:
            if sp.cancel(sp.together(result.H.subs(Esym, E0))) == 0:
                degenerate.append(E0)
    return CandidateSet(energies=energies, degenerate=tuple(degenerate))


def _carrier_candidates(result: PotentialResult, E0):
    if result.family == "1":
        return [-z ** 2 / 2, z ** 2 / 2]
    m = sp.sqrt(-sp.Rational(E0))
    return [-m * z, m * z]


def liouvillian_eigenfunction(result: PotentialResult, E0,
                              degree_cap: int = 16) -> EigenPair:
    """Exact closed-form eigenfunction at a candidate energy.

    Ansatz psi = exp(q) N(z)/den(z) with q from the family's asymptotic
    data and den the squarefree pole polynomial of V; per carrier the
    behaviour at infinity fixes deg N and one nullspace gives N.  Solutions
    that decay toward no infinity (square-integrable on none of R, R+, R-)
    are spurious and rejected; :class:`NoSolution` gives the reason.  A pair
    returned is certified by :func:`_assert_residual_zero`.
    """
    if degree_cap < 0:
        raise DegreeCapExceeded(str(degree_cap))
    E0 = sp.Rational(E0)
    V = result.V
    Vn, Vd, den = _split(V)
    reason = NoSolution.NO_CLOSED_FORM
    for q in _carrier_candidates(result, E0):
        num = _solve_numerator(Vn, Vd, E0, sp.diff(q, z), den, degree_cap)
        if num is None:
            continue
        candidate = EigenPair(E0=E0, carrier=q, num=num, den=den)
        flags = _l2_flags(candidate)
        if not any(flags.values()):
            reason = NoSolution.NOT_L2
            continue
        verified = EigenPair(E0=E0, carrier=q, num=num, den=den, l2=flags)
        _assert_residual_zero(V, E0, verified)
        return verified
    raise NoSolution(E0, reason)


@sp.cacheit  # one split per V, cleared with sympy's cache, not per energy
def _split(V):
    Vn, Vd = sp.fraction(normalize(V))
    return Vn, Vd, sp.sqf_part(Vd, z)  # den: the distinct factors of Vd


def _solve_numerator(Vn, Vd, E0, qp, den, degree_cap):
    """The monic N of least degree <= degree_cap for which exp(q)*N/den
    solves the ODE with V = Vn/Vd, or None.

    Times den^3*Vd the residual is L(N) = a0*N + a1*N' + a2*N''.  As
    L(z^n) = p(n)*z^(n+shift) + lower terms, deg N is a root of the
    indicial polynomial p, and at the least root with a solution the
    nullspace of L on z^0, ..., z^deg N is one-dimensional.
    """
    (Vn, Vd, D, Q), _ = sp.parallel_poly_from_expr(
        (Vn, Vd, den, qp), z, field=True)
    D1 = D.diff(z)
    a0 = Vd * (2 * D1 ** 2 - D * D1.diff(z) - 2 * Q * D * D1
               + (Q.diff(z) + Q ** 2 + E0) * D ** 2) + Vn * D ** 2
    a1 = 2 * Vd * D * (Q * D - D1)
    a2 = Vd * D ** 2
    shift = max(a0.degree(), a1.degree() - 1, a2.degree() - 2)
    n = sp.Dummy("n")
    indicial = (a0.nth(shift) + a1.nth(shift + 1) * n
                + a2.nth(shift + 2) * n * (n - 1))
    for deg in sorted(r for r in sp.roots(indicial, n)
                      if r.is_Integer and 0 <= r <= degree_cap):
        columns = [a0 * m + a1 * m.diff(z) + a2 * m.diff((z, 2))
                   for m in (sp.Poly(z ** i, z) for i in range(deg + 1))]
        rows = [[col.nth(j) for col in columns] for j in range(deg + shift + 1)]
        # sparse: the dense nullspace fails on a zero matrix
        basis = DomainMatrix.from_list_sympy(len(rows), deg + 1, rows) \
            .to_field().to_sparse().nullspace().to_Matrix()
        if basis.rows:
            return sp.expand(sum(c * z ** i for i, c in
                                 enumerate(basis.row(0) / basis[0, deg])))
    return None


def _assert_residual_zero(V, E0, pair: EigenPair):
    """Certify psi = exp(q)*g, g = N/den: g'' + 2q'g' + (q'' + q'^2 + V + E0)*g
    must be zero in gauge's field QQ(z, E, params), else NonzeroResidual."""
    ring, gens = _field_for([V, pair.carrier, pair.num, pair.den])
    try:
        q, g, VpE = (ring.from_expr(e) for e in
                     (pair.carrier, pair.num / pair.den, V + E0))
    except ValueError as exc:
        raise NonzeroResidual("psi not exp(q)*N/den: %s" % pair.psi) from exc
    zf = gens["z"]
    qp, gp = q.diff(zf), g.diff(zf)
    residual = gp.diff(zf) + 2 * qp * gp + (qp.diff(zf) + qp ** 2 + VpE) * g
    if residual != ring.zero:
        raise NonzeroResidual("eigenfunction residual nonzero: %s"
                              % normalize(residual.as_expr()))


def _decays_toward(q, plus_infinity: bool):
    """Does exp(q) decay as z -> +oo (or -oo)?  q is a real polynomial."""
    poly = sp.Poly(sp.expand(q), z)
    for monom, coeff in sorted(zip(poly.monoms(), poly.coeffs()),
                               reverse=True):
        degree = monom[0]
        if degree == 0 or coeff == 0:
            continue
        if not plus_infinity and degree % 2 == 1:
            coeff = -coeff
        return bool(sp.sympify(coeff).is_negative)
    return None  # q constant: no exponential decay or growth


def square_integrable(pair, interval: str) -> bool:
    """Decide integrability of |psi|^2 over R, R+ = [0, oo) or R- = (-oo, 0].

    Decay: the carrier must decay strictly toward every infinity of the
    interval (when the carrier is constant, the rational part must fall off
    faster than 1/sqrt(z)).  Poles: the rational part must have no pole in
    the closure of the interval, 0 included for the half-lines.
    """
    if interval not in INTERVALS:
        raise ValueError(interval)
    return _l2_flags(pair)[interval]


def _l2_flags(pair) -> Dict[str, bool]:
    """:func:`square_integrable` on every interval, from one pass over the
    closed form."""
    q, num, den = _closed_form(pair)
    decays = {}
    for plus in (True, False):
        decay = _decays_toward(q, plus)
        decays[plus] = decay is True or (
            decay is None and sp.degree(den, z) - sp.degree(num, z) >= 1)
    flags = {"R": decays[True] and decays[False],
             "R+": decays[True], "R-": decays[False]}
    if any(flags.values()):
        for root in sp.real_roots(sp.Poly(den, z)):
            flags["R"] = False
            flags["R+"] = flags["R+"] and not bool(root >= 0)
            flags["R-"] = flags["R-"] and not bool(root <= 0)
    return flags


def _closed_form(pair):
    """(q, num, den) of a pair or a raw exp(q)*num/den, in lowest terms."""
    if isinstance(pair, EigenPair):
        q, R = pair.carrier, pair.num / pair.den
    else:
        q, R = sp.Integer(0), sp.sympify(pair)
        carriers = [e for e in R.atoms(sp.exp) if e.args[0].has(z)]
        if len(carriers) > 1:
            raise ValueError("more than one exponential carrier")
        if carriers:
            q, R = carriers[0].args[0], R / carriers[0]
    return (q,) + sp.fraction(sp.cancel(sp.together(R)))


def spectrum_table(result: PotentialResult, kmax: int,
                   interval: str = "R",
                   degree_cap: Optional[int] = None) -> List[EigenPair]:
    """Eigenfunctions at all candidate energies, filtered by L2 interval."""
    if degree_cap is None:
        degree_cap = 2 * kmax + 8
    pairs = []
    for E0, _prov in _lemma_energies(result, kmax):
        try:
            pair = liouvillian_eigenfunction(result, E0, degree_cap=degree_cap)
        except NoSolution:
            continue
        if pair.l2.get(interval, False):
            pairs.append(pair)
    return pairs
