"""The generators: node-interpolated discrete families, the two series-built
continuous families, the Airy potential and the M = infinity conventions.

Every generator returns a fully verified :class:`PotentialResult`: its gauge
passes :func:`gauge.certify` (structure condition on H, identically zero
Schroedinger residual) before anything is handed back.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple, Union

import sympy as sp

from . import gauge
from .algebra import ESeries, eval_nu, normalize, nu, series_log_derivative, z
from .errors import DegreeMismatch, InconsistentRatio
from .gauge import CASES, HStructure, M_INFINITY, GaugeCase
from .interp import DegreeSpec, InterpNode, pade_from_series, rat_interpolate
from .seeds import NodeSpec1, NodeSpec2, seed_case1, seed_case2

t = sp.Symbol("t")


@dataclass(frozen=True)
class LogPolyPair:
    """Carrier data F(z) = sqrt(z)*P1(z^2) + log(z)*sqrt(z)*P2(z^2).

    P1 and P2 are polynomials in t (t stands for z^2).  Validity (deg P1
    sets the order n, deg P2 <= n/2 - 1 keeps the log out of the gauge) is
    checked by the generator, not here, so that the violation path can be
    exercised.
    """

    P1: sp.Expr
    P2: sp.Expr

    def __post_init__(self):
        object.__setattr__(self, "P1", sp.expand(sp.sympify(self.P1)))
        object.__setattr__(self, "P2", sp.expand(sp.sympify(self.P2)))
        if self.P1 == 0:
            raise DegreeMismatch("P1 must be nonzero")

    @property
    def order(self) -> int:
        return int(sp.degree(self.P1, t)) + 1

    @property
    def F(self):
        return (sp.sqrt(z) * self.P1.subs(t, z ** 2)
                + sp.log(z) * sp.sqrt(z) * self.P2.subs(t, z ** 2))


@dataclass(frozen=True)
class PotentialResult:
    family: str
    nu: sp.Expr
    M: Union[sp.Expr, object]  # expression or M_INFINITY
    H: Optional[sp.Expr]
    w_roots: Tuple
    V: sp.Expr
    provenance: object
    case_tag: str
    structure: Optional[HStructure] = None


def _pair_diff(p, q):
    """d/dz on sqrt(z)*(p + log(z)*q), coordinates in the (p, q) chart."""
    return (sp.cancel(p / (2 * z) + sp.diff(p, z) + q / z),
            sp.cancel(q / (2 * z) + sp.diff(q, z)))


def D_log_pair(p, q):
    """The operator D = -d^2/dz^2 - 1/(4 z^2) on sqrt(z)*(p + log(z)*q)."""
    p1, q1 = _pair_diff(p, q)
    p2, q2 = _pair_diff(p1, q1)
    return (sp.cancel(-p2 - p / (4 * z ** 2)),
            sp.cancel(-q2 - q / (4 * z ** 2)))


def D_poly(f):
    """The operator D = -d^2/dz^2 on plain polynomials."""
    return sp.expand(-sp.diff(f, z, 2))


def _verified_result(family, case_tag, nu_val, M, provenance):
    H, structure, V = gauge.certify(CASES[case_tag], M, nu_val)
    w_roots = () if structure is None else structure.w_roots
    return PotentialResult(family=family, nu=sp.sympify(nu_val), M=M, H=H,
                           w_roots=w_roots, V=V, provenance=provenance,
                           case_tag=case_tag, structure=structure)


def _gen_nodes(family, case_tag, seed, nodes, nu_val):
    """Interpolate the node seeds in E and certify; no nodes: M = infinity."""
    if not nodes:
        return replace(singular_potential(CASES[case_tag], nu_val),
                       family=family, provenance=[])
    data = [seed(nd, nu_val) for nd in nodes]
    M = rat_interpolate([InterpNode(E0, Mv) for (E0, Mv, _) in data])
    return _verified_result(family, case_tag, nu_val, M, list(nodes))


def gen_family1(nodes: Sequence[NodeSpec1], nu_val=nu) -> PotentialResult:
    """First family: energies eps1*(4k+2) + 4*eps2*nu, pullback z^2."""
    return _gen_nodes("1", "C1", seed_case1, nodes, nu_val)


def gen_family2(nodes: Sequence[NodeSpec2], nu_val=nu) -> PotentialResult:
    """Second family: energies -1/(2*eps*nu + 2k + 1)^2, pullback 2*sqrt(-E)*z."""
    return _gen_nodes("2", "C2", seed_case2, nodes, nu_val)


def gen_family3_log(pair: LogPolyPair) -> PotentialResult:
    """Log-series family (nu = 0).

    Iterates D on the (P1, P2) pair (the carrier space is stable under D),
    forms Y = sum_j D^{n-1-j} F * E^j, and takes the truncated -Y'/Y.  The
    log must drop out of every coefficient -- a P2 of excessive degree
    surfaces as NonRationalCoefficient from the series log-derivative.
    """
    n = pair.order
    p0 = pair.P1.subs(t, z ** 2)
    q0 = pair.P2.subs(t, z ** 2)
    powers = [(p0, q0)]
    for _ in range(1, n):
        powers.append(D_log_pair(*powers[-1]))
    coeffs = tuple(
        sp.sqrt(z) * (powers[n - 1 - j][0] + sp.log(z) * powers[n - 1 - j][1])
        for j in range(n))
    mser = series_log_derivative(ESeries(n, coeffs))
    M = pade_from_series(mser, DegreeSpec.for_count(n))
    return _verified_result("3log", "C3", sp.Integer(0), M, pair)


def gen_family3_poly(F) -> PotentialResult:
    """Polynomial-series family (nu = 1/2), D = -d^2/dz^2, Liouvillian
    eigenfunctions."""
    F = sp.expand(sp.sympify(F))
    if F == 0 or not F.is_polynomial(z):
        raise DegreeMismatch("F must be a nonzero polynomial in z")
    deg = int(sp.degree(F, z))
    n = deg // 2 + 1
    powers = [F]
    for _ in range(1, n):
        powers.append(D_poly(powers[-1]))
    coeffs = tuple(powers[n - 1 - j] for j in range(n))
    mser = series_log_derivative(ESeries(n, coeffs))
    M = pade_from_series(mser, DegreeSpec.for_count(n))
    return _verified_result("3poly", "C3", sp.Rational(1, 2), M, F)


def gen_family4() -> PotentialResult:
    """The Airy potential V = z (the only case-4 member, M = infinity)."""
    return replace(singular_potential(CASES["C4"]), family="4",
                   provenance="airy")


def singular_potential(case: GaugeCase, nu_val=nu) -> PotentialResult:
    """The M = infinity potential of a case: psi = prefactor * W directly."""
    if case.tag == "C4":
        nu_val = sp.Rational(1, 3)
    return _verified_result("singular", case.tag, nu_val, M_INFINITY,
                            case.tag)


def result_at_nu(result: PotentialResult, nu0) -> PotentialResult:
    """Specialize a symbolic-nu result at an exact rational nu.

    This is the confluent-node route: coincident energies are produced as a
    limit of the symbolic-nu interpolant, cancelling before substituting.
    The specialized gauge is re-certified from scratch by
    :func:`gauge.certify` (structure condition, residual) so fused w-roots
    get their correct multiplicities.
    """
    nu0 = sp.Rational(nu0)
    if result.M is M_INFINITY:
        return replace(singular_potential(CASES[result.case_tag], nu0),
                       family=result.family, provenance=result.provenance)
    M = eval_nu(result.M, nu0)
    specialized = _verified_result(result.family, result.case_tag, nu0, M,
                                   result.provenance)
    # the potential must agree with the direct limit of the symbolic one
    V_limit = eval_nu(result.V, nu0)
    if normalize(sp.together(V_limit - specialized.V)) != 0:
        raise InconsistentRatio("specialization disagrees with nu-limit")
    return specialized
