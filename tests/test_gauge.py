import pytest
import sympy as sp
from sympy import Rational as Q

from specpot import gauge
from specpot.algebra import E, ESeries, normalize, nu, rat_equal, z
from specpot.errors import (
    DegreeBoundViolated,
    EDependentPotential,
    MixedFactor,
    UnsolvableSystem,
)
from specpot.gauge import CASES, M_INFINITY, H_of, V_of, check_H_structure
from specpot.interp import DegreeSpec, InterpNode, pade_from_series, rat_interpolate
from specpot.seeds import NodeSpec1, NodeSpec2, seed_case1, seed_case2


def test_case_table():
    assert set(CASES) == {"C1", "C2", "C3", "C4"}
    assert CASES["C1"].pullback == z ** 2
    assert CASES["C1"].mu == E / 4
    assert CASES["C3"].mu == 0
    assert CASES["C4"].mu == 0


#: H(M) as written in the paper, one formula per case.  The library derives
#: H from its module reduction, so these are an independent oracle.
PAPER_H = {
    "C1": lambda M, Mp, n: (M ** 2 * z ** 2 + M * z - Mp * z ** 2 - z ** 4
                            + z ** 2 * E - 4 * n ** 2 + 1),
    "C2": lambda M, Mp, n: (4 * M ** 2 * z ** 2 + 4 * z ** 2 * E
                            - 4 * Mp * z ** 2 - 4 * n ** 2 + 4 * z + 1),
    "C3": lambda M, Mp, n: (4 * M ** 2 * z ** 2 + 4 * z ** 2 * E
                            - 4 * Mp * z ** 2 - 4 * n ** 2 + 1),
    "C4": lambda M, Mp, n: M ** 2 + E - Mp + z,
}


@pytest.mark.parametrize("tag,M,nu_val,closed", [
    # family 1, node (0,+,+)
    ("C1", (-2 * nu + z ** 2 - 1) / z, nu, z ** 2 * (E - 4 * nu - 2)),
    # family 2, node (0,+)
    ("C2", (-4 * nu ** 2 - 4 * nu + 2 * z - 1) / ((4 * nu + 2) * z), nu,
     4 * z ** 2 * ((2 * nu + 1) ** 2 * E + 1) / (2 * nu + 1) ** 2),
    # 3poly with F = z^2 + 1
    ("C3", E * z, Q(1, 2), 4 * E ** 2 * z ** 4),
    # case 4 has no finite gauge in any family: an arbitrary one
    ("C4", (z + E) / (z ** 2 - nu), nu, None),
], ids=["C1", "C2", "C3", "C4"])
def test_H_formula(tag, M, nu_val, closed):
    H = H_of(CASES[tag], M, nu_val)
    assert rat_equal(H, PAPER_H[tag](M, sp.diff(M, z), nu_val))
    if closed is not None:
        assert rat_equal(H, closed)


def test_certify_agrees_with_its_parts(monkeypatch):
    M = (-2 * nu + z ** 2 - 1) / z
    case = CASES["C1"]
    calls = []
    reduce = gauge._case_data
    monkeypatch.setattr(gauge, "_case_data",
                        lambda *args: calls.append(1) or reduce(*args))
    H, structure, V = gauge.certify(case, M, nu)
    assert len(calls) == 1          # one reduction per certification
    assert H == H_of(case, M, nu)
    assert structure == check_H_structure(H, M)
    assert V == V_of(case, M, nu)
    assert gauge.ode_residual_generic(case, M, V, nu) is None


def test_H_bypassed_at_infinity():
    with pytest.raises(ValueError):
        H_of(CASES["C1"], M_INFINITY)


def test_structure_splits_w_and_P():
    st = check_H_structure(z ** 2 * (E - 4 * nu - 2), (-2 * nu + z ** 2 - 1) / z)
    assert sp.expand(st.w - (E - 4 * nu - 2)) == 0
    assert st.P == z ** 2
    assert st.Q == 1
    assert st.w_roots == ((4 * nu + 2, 1),)


def test_structure_double_root():
    st = check_H_structure((4 * E + 1) ** 2 * z, 1 + E)
    assert st.w_roots == ((Q(-1, 4), 2),)


def test_structure_mixed_factor():
    with pytest.raises(MixedFactor):
        check_H_structure((E + z) * z, sp.Integer(1))


def test_structure_degree_bound():
    with pytest.raises(DegreeBoundViolated):
        check_H_structure(z ** 2, E)


def test_structure_irreducible_quadratic():
    with pytest.raises(UnsolvableSystem):
        check_H_structure((E ** 2 + 1) * z, sp.Integer(1))


@pytest.mark.parametrize("tag,want", [
    ("C1", (-16 * nu ** 2 - 4 * z ** 4 + 1) / (4 * z ** 2)),
    ("C2", (-4 * nu ** 2 + 4 * z + 1) / (4 * z ** 2)),
    ("C3", (1 - 4 * nu ** 2) / (4 * z ** 2)),
    ("C4", z),
])
def test_infinite_gauge_potentials(tag, want):
    assert rat_equal(V_of(CASES[tag], M_INFINITY, nu), want)
    H, structure, V = gauge.certify(CASES[tag], M_INFINITY, nu)
    assert H is None and structure is None and rat_equal(V, want)


def test_single_node_potential_and_residual():
    M = (-2 * nu + z ** 2 - 1) / z
    V = V_of(CASES["C1"], M, nu)
    want = (-16 * nu ** 2 - 16 * nu - 4 * z ** 4 - 8 * z ** 2 - 3) \
        / (4 * z ** 2)
    assert rat_equal(V, want)
    assert gauge.ode_residual_generic(CASES["C1"], M, V, nu) is None


def test_residual_witness_on_wrong_potential():
    M = (-2 * nu + z ** 2 - 1) / z
    V = V_of(CASES["C1"], M, nu)
    witness = gauge.ode_residual_generic(CASES["C1"], M, V + 1, nu)
    assert witness is not None
    assert sp.simplify(witness) != 0


def test_energy_dependent_gauge_rejected():
    with pytest.raises(EDependentPotential) as info:
        V_of(CASES["C1"], z, nu)
    assert info.value.witness.has(E)


def test_corrupted_node_breaks_structure():
    # a genuine seed list cannot mix z and E in the numerator of H; spoiling
    # one node value before interpolation does
    E0a, Ma, _ = seed_case2(NodeSpec2(0, -1))
    E0b, Mb, _ = seed_case2(NodeSpec2(1, 1))
    M = rat_interpolate([InterpNode(E0a, Ma + 1 / z), InterpNode(E0b, Mb)])
    H = H_of(CASES["C2"], M)
    with pytest.raises(MixedFactor):
        check_H_structure(H, M)


def _riccati_series(eps, order, nu_val=nu):
    """E-expansion of the finite-at-E=0 branch of 4M^2 z^2 + 4 z^2 E
    - 4 M' z^2 - 4 nu^2 + 1 = 0, solved order by order with an odd
    Laurent-polynomial ansatz."""
    Ms = [(2 * eps * nu_val - 1) / (2 * z)]
    for i in range(1, order):
        cs = sp.symbols("c0:%d" % (2 * i + 3))
        Mi = sum(cs[j] * z ** (j - 1) for j in range(2 * i + 3))
        Mfull = sum(Ms[j] * E ** j for j in range(i)) + Mi * E ** i
        expr = sp.expand(4 * Mfull ** 2 * z ** 2 + 4 * z ** 2 * E
                         - 4 * sp.diff(Mfull, z) * z ** 2
                         - 4 * nu_val ** 2 + 1)
        eqs = sp.Poly(sp.expand(expr.coeff(E, i)), z).coeffs()
        sol = sp.solve(eqs, cs, dict=True)
        Ms.append(sp.cancel(Mi.subs(sol[0]).subs({c: 0 for c in cs})))
    return Ms


@pytest.mark.parametrize("eps", [1, -1])
@pytest.mark.parametrize("order", [2, 3])
def test_homography_shifts_bessel_index(eps, order):
    """Truncating the Whittaker log-derivative series at order k and taking
    its Pade gauge reproduces the M = infinity potential with nu -> nu - eps*k."""
    Ms = _riccati_series(eps, order)
    M = pade_from_series(ESeries.from_list(Ms), DegreeSpec.for_count(order))
    V = V_of(CASES["C3"], M, nu)
    Vinf = V_of(CASES["C3"], M_INFINITY, nu)
    assert rat_equal(V, Vinf.subs(nu, nu - eps * order))
    assert not rat_equal(V, Vinf)
