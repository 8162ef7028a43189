import random
from dataclasses import replace

import pytest
import sympy as sp
from sympy import Rational as Q

from specpot import spectrum
from specpot.algebra import normalize, nu, z
from specpot.errors import (
    DegreeCapExceeded,
    NonzeroResidual,
    NoSolution,
    SingularParameter,
    SymbolicNu,
)
from specpot.families import (
    gen_family1,
    gen_family2,
    gen_family3_poly,
    result_at_nu,
)
from specpot.seeds import NodeSpec1, NodeSpec2
from specpot.spectrum import (
    EigenPair,
    enumerate_candidates,
    liouvillian_eigenfunction,
    spectrum_table,
    square_integrable,
)


def _energies(cset):
    return [e for e, _prov in cset.energies]


def test_candidates_anharmonic(anharmonic):
    cset = enumerate_candidates(anharmonic, 3)
    energies = _energies(cset)
    assert all(e % 2 == 1 for e in energies)
    for e in (-5, -1, 1, 3, 5, 7, 9, 13):
        assert e in energies
    assert cset.degenerate == (3,)


def test_candidates_fusion(fusion):
    cset = enumerate_candidates(fusion, 3)
    assert _energies(cset) == [Q(-1, 4), Q(-1, 16), Q(-1, 36), Q(-1, 64)]
    assert all(e == Q(-1, 4 * k ** 2) for e, k in
               zip(_energies(cset), (1, 2, 3, 4)))


def test_candidates_small_nu():
    res = result_at_nu(gen_family1([NodeSpec1(0, 1, 1)], nu), Q(1, 4))
    cset = enumerate_candidates(res, 0)
    assert set(_energies(cset)) == {3, 1, -1, -3}


def test_candidates_need_numeric_nu(fusion_symbolic):
    with pytest.raises(SymbolicNu):
        enumerate_candidates(fusion_symbolic, 2)


def test_candidates_discrete_families_only():
    res = gen_family3_poly(z)
    with pytest.raises(SymbolicNu):
        enumerate_candidates(res, 2)


def _matches(pair, want_carrier, want_rational):
    assert pair.carrier == want_carrier
    ratio = sp.cancel(sp.together(pair.num / pair.den / want_rational))
    assert ratio.is_constant(z)
    return True


def test_anharmonic_ground_state(anharmonic):
    pair = liouvillian_eigenfunction(anharmonic, -1)
    assert _matches(pair, -z ** 2 / 2, 1 / (2 * z ** 2 + 1))
    assert pair.l2 == {"R": True, "R+": True, "R-": True}


def test_anharmonic_first_excited(anharmonic):
    pair = liouvillian_eigenfunction(anharmonic, 5)
    assert _matches(pair, -z ** 2 / 2,
                    z * (2 * z ** 2 + 3) / (2 * z ** 2 + 1))


def test_anharmonic_accident_energy_gap(anharmonic):
    # the E = 3 candidate has an exact closed-form solution but it grows
    # toward both infinities; it must be reported as no eigenfunction
    with pytest.raises(NoSolution) as exc:
        liouvillian_eigenfunction(anharmonic, 3)
    assert exc.value.reason == NoSolution.NOT_L2


def test_no_closed_form_reason(anharmonic):
    # deg N would be 7 at E = 13 on the decaying carrier, above the cap
    with pytest.raises(NoSolution) as exc:
        liouvillian_eigenfunction(anharmonic, 13, degree_cap=6)
    assert exc.value.reason == NoSolution.NO_CLOSED_FORM


def test_fusion_table_entry(fusion):
    pair = liouvillian_eigenfunction(fusion, Q(-1, 16))
    assert _matches(pair, -z / 4,
                    z * (z ** 3 + 6 * z ** 2 + 18 * z + 24)
                    / (z ** 2 + 2 * z + 2))
    assert pair.l2 == {"R": False, "R+": True, "R-": False}


def test_fusion_growing_carrier_entry(fusion):
    # k = 1: the eigenfunction needs the carrier that grows at +oo
    pair = liouvillian_eigenfunction(fusion, Q(-1, 4))
    assert pair.carrier == z / 2
    assert pair.l2 == {"R": False, "R+": False, "R-": True}


def test_degree_cap():
    with pytest.raises(DegreeCapExceeded):
        liouvillian_eigenfunction(None, 1, degree_cap=-1)


def test_square_integrable_closed_forms():
    assert square_integrable(sp.exp(-z ** 2 / 2) / (2 * z ** 2 + 1), "R")
    grow = sp.exp(z / 2) * z / (z ** 2 + 2 * z + 2)
    assert square_integrable(grow, "R-")
    assert not square_integrable(grow, "R+")
    assert not square_integrable(sp.exp(z ** 2 / 2) * z, "R")


def test_square_integrable_pole_rules():
    f = sp.exp(-z ** 2) / (z - 1)
    assert not square_integrable(f, "R")
    assert not square_integrable(f, "R+")
    assert square_integrable(f, "R-")
    # constant carrier: needs faster-than-1/sqrt(z) falloff
    assert square_integrable(1 / (z ** 2 + 1), "R+")
    assert square_integrable(z / (z ** 2 + 1), "R+")
    assert not square_integrable((z + 1) / (z + 2), "R+")


def test_spectrum_table_anharmonic(anharmonic):
    pairs = spectrum_table(anharmonic, 3, interval="R")
    energies = {p.E0 for p in pairs}
    assert {-1, 5, 7, 9, 11, 13} <= energies
    assert 3 not in energies
    assert all(p.l2["R"] for p in pairs)


def test_spectrum_table_fusion_split(fusion):
    plus = spectrum_table(fusion, 3, interval="R+")
    minus = spectrum_table(fusion, 3, interval="R-")
    whole = spectrum_table(fusion, 3, interval="R")
    assert [p.E0 for p in plus] == [Q(-1, 16), Q(-1, 36), Q(-1, 64)]
    assert [p.E0 for p in minus] == [Q(-1, 4)]
    assert whole == []


def test_eigenpair_psi_shape(anharmonic):
    pair = liouvillian_eigenfunction(anharmonic, -1)
    assert pair.psi == sp.exp(pair.carrier) * pair.num / pair.den


def _sweep_numerator(V, E0, qp, den, degree_cap):
    """Reference: sweep deg N upward, solving the Expr residual's
    coefficient equations at each degree (the solver before the indicial
    degree bound)."""
    for deg in range(degree_cap + 1):
        unknowns = sp.symbols("n0:%d" % (deg + 1))
        N = sum(unknowns[i] * z ** i for i in range(deg + 1))
        g = N / den
        residual = (sp.diff(g, z, 2) + 2 * qp * sp.diff(g, z)
                    + (sp.diff(qp, z) + qp ** 2 + V + E0) * g)
        numerator = sp.expand(sp.numer(sp.together(residual)))
        eqs = sp.Poly(numerator, z).coeffs()
        sol = sp.linsolve(eqs, unknowns)
        for s in sol:
            N_val = sum(s[i] * z ** i for i in range(deg + 1))
            free = N_val.free_symbols & set(unknowns)
            if free:
                N_val = N_val.subs({f: 1 for f in free})
            N_val = sp.expand(N_val)
            if N_val != 0:
                return N_val
    return None


def _assert_same_numerators(res, kmax, degree_cap):
    Vn, Vd = sp.fraction(normalize(res.V))
    den = sp.sqf_part(Vd, z)
    found = 0
    for E0, _prov in enumerate_candidates(res, kmax).energies:
        for q in spectrum._carrier_candidates(res, E0):
            qp = sp.diff(q, z)
            want = _sweep_numerator(res.V, E0, qp, den, degree_cap)
            got = spectrum._solve_numerator(Vn, Vd, E0, qp, den, degree_cap)
            assert got == want, (E0, q)
            found += want is not None
    return found


def test_solver_matches_sweep_paper(anharmonic, fusion):
    # E0 = -13 on the growing carrier needs deg N = 9, the cap itself
    assert _assert_same_numerators(anharmonic, 2, 9) == 12
    assert _assert_same_numerators(fusion, 2, 9) == 3


def test_solver_matches_sweep_oscillator():
    osc = result_at_nu(gen_family1([], nu), Q(1, 4))
    assert _assert_same_numerators(osc, 1, 7) == 8


def test_solver_matches_sweep_random():
    """Random one-node family-1/2 potentials, drawn as in acceptance
    criterion 5 but at the nu where closed forms exist (quarter-integers for
    family 1, half-integers for family 2); the cap of 4 lies below some of
    their eigenfunction degrees (up to 6)."""
    rng = random.Random(20240824)
    done = found = 0
    while done < 4:
        family1 = done % 2 == 0
        nu0 = Q(rng.choice([-3, -1, 1, 3]), 4 if family1 else 2)
        try:
            if family1:
                res = gen_family1([NodeSpec1(rng.randint(0, 1),
                                             rng.choice([1, -1]),
                                             rng.choice([1, -1]))], nu0)
            else:
                res = gen_family2([NodeSpec2(rng.randint(0, 1),
                                             rng.choice([1, -1]))], nu0)
        except SingularParameter:
            continue
        found += _assert_same_numerators(res, 1, 4)
        done += 1
    assert found > 0


def _ref_assert_residual_zero(V, E0, pair):
    """Reference: the Expr certificate (cancel of psi's whole residual over
    exp(q)) that the field certificate replaced."""
    q = pair.carrier
    qp = sp.diff(q, z)
    g = pair.num / pair.den
    residual = sp.cancel(sp.together(
        sp.diff(g, z, 2) + 2 * qp * sp.diff(g, z)
        + (sp.diff(qp, z) + qp ** 2 + V + E0) * g))
    if residual != 0:
        raise NonzeroResidual("eigenfunction residual nonzero: %s" % residual)


def _verdict(certificate, V, E0, pair):
    try:
        certificate(V, E0, pair)
    except NonzeroResidual:
        return "nonzero"
    return "zero"


def _mutations(pair):
    """The closed form and four variants, each with the verdict it must
    get: N*(z+1), E0 + 1, the carrier's sign flipped, den replaced by 1 (a
    solution again only where den is 1)."""
    yield "zero", pair.E0, pair
    yield "nonzero", pair.E0, replace(pair, num=sp.expand(pair.num * (z + 1)))
    yield "nonzero", pair.E0 + 1, pair
    yield "nonzero", pair.E0, replace(pair, carrier=-pair.carrier)
    yield ("zero" if pair.den == 1 else "nonzero"), pair.E0, \
        replace(pair, den=sp.Integer(1))


#: the spectrum panel of bench/workloads.py without its fused potential
#: (the ``fusion`` fixture): family, nu, nodes, kmax
_PANEL = [
    ("1", Q(-1, 4), [(0, -1, -1)], 0),
    ("1", Q(1, 4), [(0, 1, -1)], 0),
    ("1", Q(3, 4), [(0, -1, 1)], 0),
    ("1", Q(-1, 4), [(1, -1, -1)], 0),
    ("2", Q(1, 2), [(1, 1)], 1),
    ("1", Q(-3, 4), [(0, 1, 1)], 0),
    ("1", Q(3, 4), [(0, 1, -1)], 0),
]


def test_certificate_matches_expr_reference(anharmonic, fusion):
    """Same verdict, zero or NonzeroResidual, from the field certificate and
    the Expr reference on every closed form of the spectrum panel at
    kmax + 1 and of the oscillator, on four mutations of each, and on
    closed forms outside the field."""
    results = [(anharmonic, 0), (fusion, 1),
               (result_at_nu(gen_family1([], nu), Q(1, 4)), 1)]
    for family, nu0, nodes, kmax in _PANEL:
        if family == "1":
            res = gen_family1([NodeSpec1(*nd) for nd in nodes], nu0)
        else:
            res = gen_family2([NodeSpec2(*nd) for nd in nodes], nu0)
        results.append((res, kmax))
    closed_forms = 0
    for res, kmax in results:
        for E0, _prov in enumerate_candidates(res, kmax + 1).energies:
            try:
                pair = liouvillian_eigenfunction(res, E0, 2 * kmax + 10)
            except NoSolution:
                continue
            closed_forms += 1
            for expected, E1, variant in _mutations(pair):
                want = _verdict(_ref_assert_residual_zero, res.V, E1, variant)
                got = _verdict(spectrum._assert_residual_zero, res.V, E1,
                               variant)
                assert got == want == expected, (res.V, E1, variant.psi)
    assert closed_forms > 25
    V = anharmonic.V
    for carrier, num in ((-sp.sqrt(z), sp.Integer(1)),
                         (-z ** 2 / 2, sp.sqrt(z)),
                         (-sp.sqrt(2) * z ** 2 / 2, sp.Integer(1))):
        pair = EigenPair(E0=Q(-1), carrier=carrier, num=num,
                         den=2 * z ** 2 + 1)
        assert _verdict(_ref_assert_residual_zero, V, pair.E0, pair) \
            == _verdict(spectrum._assert_residual_zero, V, pair.E0, pair) \
            == "nonzero"
