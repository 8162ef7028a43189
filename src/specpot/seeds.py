"""Hyperexponential seed solutions of the degenerate equations, and the
supporting identities (hyperexponential integration, the Gamma-sum relation,
the residue pairing).

The degenerate equations at a root E0 of w are, in the two discrete cases,

    z^2 Y'' - z Y' - (z^4 - E0 z^2 + 4 nu^2 - 1) Y = 0          (case 1)
    4 z^2 Y'' + (4 E0 z^2 + 4 z - 4 nu^2 + 1) Y = 0             (case 2)

and their hyperexponential solutions are z-power x exponential x terminating
confluent-hypergeometric polynomial.  Each seed is verified against its
equation symbolically on construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import sympy as sp

from .algebra import normalize, nu, z
from .errors import NON_ELEMENTARY, SingularParameter


@dataclass(frozen=True)
class HyperexpSeed:
    """Closed form ``Y(z) = z**z_power * exp(carrier) * poly(z)``."""

    z_power: sp.Expr
    carrier: sp.Expr
    poly: sp.Expr

    @property
    def expr(self):
        return z ** self.z_power * sp.exp(self.carrier) * self.poly

    def log_derivative(self):
        """Y'/Y, a rational function of z."""
        return sp.cancel(self.z_power / z + sp.diff(self.carrier, z)
                         + sp.diff(self.poly, z) / self.poly)


@dataclass(frozen=True)
class NodeSpec1:
    """Family-1 node (k, eps1, eps2) with energy eps1*(4k+2) + 4*eps2*nu."""

    k: int
    eps1: int
    eps2: int

    def __post_init__(self):
        if self.k < 0 or self.eps1 not in (1, -1) or self.eps2 not in (1, -1):
            raise ValueError("need k >= 0 and signs +-1")

    def energy(self, nu_val=nu):
        return sp.expand(self.eps1 * (4 * self.k + 2) + 4 * self.eps2 * nu_val)


@dataclass(frozen=True)
class NodeSpec2:
    """Family-2 node (k, eps) with energy -1/(2*eps*nu + 2k + 1)**2."""

    k: int
    eps: int

    def __post_init__(self):
        if self.k < 0 or self.eps not in (1, -1):
            raise ValueError("need k >= 0 and sign +-1")

    def energy(self, nu_val=nu):
        m = 2 * self.eps * nu_val + 2 * self.k + 1
        if sp.cancel(sp.sympify(m)) == 0:
            raise SingularParameter("2*eps*nu + 2k + 1 vanishes")
        return sp.cancel(-1 / m ** 2)


def f1f1_poly(k: int, b, scale: int) -> sp.Expr:
    """Terminating 1F1(-k, b, scale*z^2) as a polynomial in z.

    When b hits a nonpositive integer in -(k-1)..0 the plain Pochhammer
    quotients blow up; the Gamma-regularized variant (multiply through by
    (b)_k, then renormalize the constant term) is used instead, and
    :class:`SingularParameter` is raised when that degenerates too.
    """
    return f1f1_poly_in(k, b, sp.Integer(scale) * z ** 2)


def seed_case1(node: NodeSpec1, nu_val=nu):
    """Seed for the first degenerate equation.

    Returns (E0, M, Y) with M = -Y'/Y.  The residual of the case-1 equation
    is asserted to vanish identically.
    """
    e1, e2, k = node.eps1, node.eps2, node.k
    nu_val = sp.sympify(nu_val)
    E0 = node.energy(nu_val)
    seed = HyperexpSeed(
        z_power=2 * e1 * e2 * nu_val + 1,
        carrier=-e1 * z ** 2 / 2,
        poly=f1f1_poly(k, 2 * e1 * e2 * nu_val + 1, e1),
    )
    m = seed.log_derivative()
    residual = sp.cancel(z ** 2 * (sp.diff(m, z) + m ** 2) - z * m
                         - (z ** 4 - E0 * z ** 2 + 4 * nu_val ** 2 - 1))
    if residual != 0:
        raise SingularParameter("case-1 seed fails its equation: %s" % residual)
    return E0, normalize(-m), seed


def seed_case2(node: NodeSpec2, nu_val=nu):
    """Seed for the second degenerate equation; same contract as seed_case1."""
    e, k = node.eps, node.k
    nu_val = sp.sympify(nu_val)
    E0 = node.energy(nu_val)
    m0 = 2 * e * nu_val + 2 * k + 1
    seed = HyperexpSeed(
        z_power=e * nu_val + sp.Rational(1, 2),
        carrier=-z / m0,
        poly=f1f1_poly_in(k, 2 * e * nu_val + 1, 2 * z / m0),
    )
    m = seed.log_derivative()
    residual = sp.cancel(4 * z ** 2 * (sp.diff(m, z) + m ** 2)
                         + (4 * E0 * z ** 2 + 4 * z - 4 * nu_val ** 2 + 1))
    if residual != 0:
        raise SingularParameter("case-2 seed fails its equation: %s" % residual)
    return E0, normalize(-m), seed


def f1f1_poly_in(k: int, b, x) -> sp.Expr:
    """Terminating 1F1(-k, b, x) in an arbitrary polynomial argument x."""
    b = sp.sympify(b)
    degenerate = any(sp.cancel(b + j) == 0 for j in range(k))
    if not degenerate:
        return sp.expand(sum(
            sp.rf(-k, j) / (sp.rf(b, j) * sp.factorial(j)) * x ** j
            for j in range(k + 1)))
    reg = sp.expand(sum(
        sp.rf(-k, j) * sp.rf(b + j, k - j) / sp.factorial(j) * x ** j
        for j in range(k + 1)))
    const = reg.subs(z, 0)
    if sp.cancel(const) == 0:
        raise SingularParameter("regularized 1F1 has vanishing constant term")
    return sp.expand(reg / const)


def hyperexp_integrate(p, q, a_exp, extra_poles: int = 4):
    """Solve ``(R * z**a * exp(q))' = p * z**a * exp(q)`` for rational R.

    Equivalent first-order problem: R' + (a/z + q') R = p.  R is sought as a
    Laurent polynomial ``sum_{j=-m}^{N} r_j z^j`` with the pole bound m and
    top degree N read off the integrand (plus slack); if no candidate space
    contains a solution the integral is non-elementary and the
    :data:`NON_ELEMENTARY` sentinel is returned.
    """
    p = sp.sympify(p)
    q = sp.sympify(q)
    a_exp = sp.sympify(a_exp)
    qp = sp.cancel(sp.diff(q, z))
    dp = int(sp.degree(p, z)) if p != 0 else 0
    N = dp + 2
    m = dp + extra_poles
    # an integer z-power lets the pole depth climb to a_exp - 1 before the
    # a/z term stops cancelling the derivative
    if a_exp.is_Integer and a_exp > 0:
        m += int(a_exp)
    ncoef = N + m + 1
    rs = sp.symbols("r0:%d" % ncoef)
    R = sum(rs[i] * z ** (i - m) for i in range(ncoef))
    lhs = sp.together(sp.diff(R, z) + (a_exp / z + qp) * R - p)
    eqs = sp.Poly(sp.expand(sp.numer(lhs)), z).coeffs()
    sol = sp.solve(eqs, rs, dict=True)
    if not sol:
        return NON_ELEMENTARY
    Rv = R.subs(sol[0]).subs({r: 0 for r in rs})
    if sp.cancel(sp.diff(Rv, z) + (a_exp / z + qp) * Rv - p) != 0:
        return NON_ELEMENTARY
    if Rv == 0 and p != 0:
        return NON_ELEMENTARY
    return sp.cancel(Rv)


def gamma_sum_check(k: int, nu_val):
    """Left minus right of the Gamma-sum relation for the squared 1F1 seed.

    With v_n the coefficients of 1F1(-k, 2nu+1, x)^2,

        sum_n v_n * (2nu)(2nu+1)...(2nu+n)  =  2nu * k! / (2nu+1)_k .

    Gamma-quotients are evaluated as rising factorials so everything stays
    in Q(nu).  Expected to be identically zero whenever 2nu is not an
    integer.
    """
    nu_val = sp.sympify(nu_val)
    two_nu = sp.cancel(2 * nu_val)
    if two_nu.is_number and two_nu.is_integer:
        raise SingularParameter("identity requires 2*nu not an integer")
    x = sp.Dummy("x")
    sq = sp.expand(f1f1_poly_in(k, 2 * nu_val + 1, x) ** 2)
    coeffs = sp.Poly(sq, x).all_coeffs()[::-1]
    lhs = sum(coeffs[n] * sp.rf(2 * nu_val, n + 1) for n in range(len(coeffs)))
    rhs = 2 * nu_val * sp.factorial(k) / sp.rf(2 * nu_val + 1, k)
    return sp.cancel(sp.together(lhs - rhs))


def residue_pairing(p: int, k: int):
    """Residue at z=0 of (z/Y^2) (int Y^2/z dz)^2 for the nu=(p-k)/2 seed.

    Computed from first principles: the inner antiderivative comes out of
    :func:`hyperexp_integrate`, the outer residue from the exact Laurent
    expansion; the value is asserted against k! ((p-k)!)^2 / (4 p!).
    """
    if not (0 <= k <= p):
        raise ValueError("need 0 <= k <= p")
    bpar = p - k + 1
    P = sp.expand(f1f1_poly(k, bpar, 1))
    a_exp = 2 * (p - k) + 1
    R = hyperexp_integrate(sp.expand(P ** 2), -z ** 2, a_exp)
    if R is NON_ELEMENTARY:
        raise SingularParameter("inner integral unexpectedly non-elementary")
    rational_part = sp.cancel(R ** 2 * z ** (2 * a_exp + 1 - 2 * (p - k) - 2)
                              / P ** 2)
    res = sp.nsimplify(sp.residue(rational_part * sp.exp(-z ** 2), z, 0))
    closed = sp.factorial(k) * sp.factorial(p - k) ** 2 / (4 * sp.factorial(p))
    if sp.simplify(res - closed) != 0:
        raise AssertionError(
            "residue %s disagrees with closed form %s" % (res, closed))
    return sp.Rational(res)
