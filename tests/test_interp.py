import random

import pytest
import sympy as sp
from sympy import Rational as Q

from specpot import families
from specpot.algebra import E, ESeries, a, b, normalize, nu, rat_equal, z
from specpot.errors import DuplicateNode, SingularParameter, UnsolvableSystem
from specpot.families import LogPolyPair, t
from specpot.interp import (
    DegreeSpec,
    InterpNode,
    pade_from_series,
    rat_interpolate,
)
from specpot.seeds import NodeSpec1, NodeSpec2, seed_case1, seed_case2


def test_degree_spec_convention():
    assert DegreeSpec.for_count(1) == DegreeSpec(0, 0)
    assert DegreeSpec.for_count(2) == DegreeSpec(1, 0)
    assert DegreeSpec.for_count(3) == DegreeSpec(1, 1)
    assert DegreeSpec.for_count(4) == DegreeSpec(2, 1)


def test_single_node_family1_gauge():
    E0, M0, _ = seed_case1(NodeSpec1(1, 1, 1))
    M = rat_interpolate([InterpNode(E0, M0)])
    want = (-z ** 4 + (4 * nu + 4) * z ** 2 - (2 * nu + 1) ** 2) \
        / (z * (2 * nu + 1 - z ** 2))
    assert rat_equal(M, want)
    assert sp.degree(sp.fraction(M)[0], E) <= 0


def test_two_point_polynomial_case():
    M = rat_interpolate([InterpNode(0, 1), InterpNode(1, 2)])
    assert rat_equal(M, 1 + E)


def test_two_family2_nodes_give_degree_one_gauge():
    E0a, Ma, _ = seed_case2(NodeSpec2(0, -1))
    E0b, Mb, _ = seed_case2(NodeSpec2(1, 1))
    M = rat_interpolate([InterpNode(E0a, Ma), InterpNode(E0b, Mb)])
    want = (-(2 * nu + 3) * (2 * nu - 1)
            * (8 * nu ** 4 + 20 * nu ** 3 - 8 * nu ** 2 * z + 6 * nu ** 2
               - 12 * nu * z + 2 * z ** 2 - 9 * nu)
            / (4 * z * (4 * nu ** 2 + 8 * nu - 2 * z + 3))) * E \
        + ((-8 * nu ** 4 - 20 * nu ** 3 + 8 * nu ** 2 * z - 30 * nu ** 2
            + 12 * nu * z - 2 * z ** 2 - 31 * nu + 16 * z - 6)
           / (4 * z * (4 * nu ** 2 + 8 * nu - 2 * z + 3)))
    assert rat_equal(M, want)


def test_duplicate_node_rejected():
    with pytest.raises(DuplicateNode):
        rat_interpolate([InterpNode(2 + 4 * nu, 1), InterpNode(4 * nu + 2, z)])


def test_unattainable_point_reported():
    nodes = [InterpNode(0, 1), InterpNode(1, 0), InterpNode(-1, 0)]
    with pytest.raises(UnsolvableSystem):
        rat_interpolate(nodes)


def test_interpolation_roundtrip_random():
    rng = random.Random(20240817)
    for _ in range(8):
        n = rng.randint(1, 5)
        spec = DegreeSpec.for_count(n)
        num = sum(rng.randint(-3, 3) * z ** rng.randint(0, 2) * E ** i
                  for i in range(spec.num_deg + 1)) + E ** spec.num_deg
        den = sum(rng.randint(-3, 3) * E ** i
                  for i in range(spec.den_deg + 1)) + (z + 2) * E ** spec.den_deg
        target = normalize(num / den)
        energies = rng.sample(range(-12, 13), n)
        nodes = []
        ok = True
        for e0 in energies:
            dval = den.subs(E, e0)
            if sp.cancel(dval) == 0:
                ok = False
                break
            nodes.append(InterpNode(e0, normalize(num.subs(E, e0) / dval)))
        if not ok:
            continue
        got = rat_interpolate(nodes)
        assert rat_equal(got, target)


def test_pade_geometric():
    Y = ESeries.from_list([1, 1, 1])
    got = pade_from_series(Y, DegreeSpec(0, 1))
    assert rat_equal(got, 1 / (1 - E))


def test_pade_log_family_gauge():
    Y = ESeries.from_list([-1 / (2 * z), (2 * z ** 2 + b) / (4 * z)])
    got = pade_from_series(Y, DegreeSpec(1, 0))
    assert rat_equal(got, (2 * E * z ** 2 + E * b - 2) / (4 * z))


def test_pade_degree_contract():
    Y = ESeries.from_list([z, 1 + z, z ** 2, sp.Integer(7)])
    spec = DegreeSpec.for_count(4)
    got = pade_from_series(Y, spec)
    numd, dend = sp.fraction(normalize(got))
    assert sp.degree(numd, E) <= spec.num_deg
    assert sp.degree(dend, E) <= spec.den_deg


def test_pade_order_precondition():
    with pytest.raises(UnsolvableSystem):
        pade_from_series(ESeries.from_list([1, z]), DegreeSpec(1, 1))


def test_pade_reexpansion_consistency():
    Y = ESeries.from_list([1 + z, z ** 2 - 1, 2 * z, sp.Integer(1), z ** 3])
    spec = DegreeSpec.for_count(5)
    M = pade_from_series(Y, spec)
    num, den = sp.fraction(normalize(M))
    num_c = [sp.cancel(num.coeff(E, i)) for i in range(Y.order)]
    den_c = [sp.cancel(den.coeff(E, i)) for i in range(Y.order)]
    back = ESeries.from_list(den_c).inverse() * ESeries.from_list(num_c)
    assert back.equal(Y)


# ------------------------------------------------------------------
# Differential test: the two-route Expr interpolation and Pade code that
# the single DomainMatrix nullspace replaced, kept as the reference.

def _ref_linear_interpolant(points, num_deg, den_deg):
    rows = []
    for (e0, val) in points:
        row = [sp.cancel(e0 ** i) for i in range(num_deg + 1)]
        row += [sp.cancel(-val * e0 ** i) for i in range(den_deg + 1)]
        rows.append(row)
    null = sp.Matrix(rows).nullspace()
    if not null:
        return None
    vec = null[0]
    num = sum(vec[i] * E ** i for i in range(num_deg + 1))
    den = sum(vec[num_deg + 1 + i] * E ** i for i in range(den_deg + 1))
    if sp.cancel(sp.together(den)) == 0:
        return None
    return normalize(num / den)


def _ref_check_nodes(M, points):
    for (e0, val) in points:
        num, den = sp.fraction(sp.cancel(sp.together(M)))
        den_at = sp.cancel(den.subs(E, e0))
        if den_at == 0:
            return False
        if not rat_equal(sp.cancel(num.subs(E, e0)) / den_at, val):
            return False
    return True


def _ref_degree_ok(M, spec):
    num, den = sp.fraction(sp.cancel(sp.together(M)))
    return (sp.degree(num, E) <= spec.num_deg and
            sp.degree(den, E) <= spec.den_deg)


def _ref_rat_interpolate(nodes):
    n = len(nodes)
    if n < 1:
        raise UnsolvableSystem("at least one node required")
    for i in range(n):
        for j in range(i + 1, n):
            if rat_equal(nodes[i].energy, nodes[j].energy):
                raise DuplicateNode("energies coincide")
    spec = DegreeSpec.for_count(n)
    points = [(nd.energy, normalize(nd.value)) for nd in nodes]
    if all(val != 0 for (_, val) in points):
        recip = [(e0, normalize(1 / val)) for (e0, val) in points]
        W = _ref_linear_interpolant(recip, spec.den_deg, spec.num_deg)
        if W is not None and sp.cancel(sp.together(W)) != 0:
            M = normalize(1 / W)
            if _ref_degree_ok(M, spec) and _ref_check_nodes(M, points):
                return M
    M = _ref_linear_interpolant(points, spec.num_deg, spec.den_deg)
    if M is None or not _ref_check_nodes(M, points):
        raise UnsolvableSystem("no rational interpolant")
    return M


def _ref_pade_once(Y, num_deg, den_deg):
    n = Y.order
    rows = []
    for j in range(n):
        row = [sp.Integer(1) if i == j else sp.Integer(0)
               for i in range(num_deg + 1)]
        row += [sp.cancel(-Y.coeffs[j - i]) if 0 <= j - i < n
                else sp.Integer(0) for i in range(den_deg + 1)]
        rows.append(row)
    null = sp.Matrix(rows).nullspace()
    if not null:
        return None
    vec = null[0]
    den_coeffs = [sp.cancel(vec[num_deg + 1 + i]) for i in range(den_deg + 1)]
    if all(cc == 0 for cc in den_coeffs) or sp.cancel(den_coeffs[0]) == 0:
        return None
    num_series = ESeries(n, tuple(
        sp.cancel(vec[i]) if i <= num_deg else sp.Integer(0)
        for i in range(n)))
    den_series = ESeries(n, tuple(
        den_coeffs[i] if i <= den_deg else sp.Integer(0) for i in range(n)))
    if not (den_series.inverse() * num_series).equal(Y):
        return None
    num = sum(vec[i] * E ** i for i in range(num_deg + 1))
    den = sum(den_coeffs[i] * E ** i for i in range(den_deg + 1))
    return normalize(num / den)


def _ref_pade_from_series(Y, spec):
    if Y.order < spec.num_deg + spec.den_deg + 1:
        raise UnsolvableSystem("series order too small")
    for den_deg in range(spec.den_deg, -1, -1):
        M = _ref_pade_once(Y, spec.num_deg, den_deg)
        if M is not None:
            return M
    raise UnsolvableSystem("no Pade form")


def _outcome(fn, *args):
    """srepr of the canonical result, or the exception type raised."""
    try:
        return sp.srepr(normalize(fn(*args)))
    except (DuplicateNode, UnsolvableSystem) as exc:
        return type(exc)


def _nodes(seed, specs, nu_val=nu):
    return [InterpNode(E0, Mv) for (E0, Mv, _) in
            (seed(nd, nu_val) for nd in specs)]


def _criterion5_nodes(draws):
    """The first family-1 node sets of the randomized acceptance test."""
    rng = random.Random(20240824)
    out = []
    while len(out) < draws:
        while True:
            q = rng.choice([3, 4, 5, 7])
            p = rng.randint(-9, 9)
            if p != 0 and Q(2 * p, q) != int(Q(2 * p, q)):
                break
        nu0 = Q(p, q)
        n = rng.randint(1, 3)
        specs = [NodeSpec1(rng.randint(0, 3), rng.choice([1, -1]),
                           rng.choice([1, -1])) for _ in range(n)]
        try:
            out.append(_nodes(seed_case1, specs, nu0))
        except SingularParameter:
            out.append(None)
    return [nodes for nodes in out if nodes is not None]


_INTERP_CASES = {
    "f1 (1,+,+)": (seed_case1, [NodeSpec1(1, 1, 1)]),
    "f1 (1,-,+)": (seed_case1, [NodeSpec1(1, -1, 1)]),
    "f1 (2,+,+)": (seed_case1, [NodeSpec1(2, 1, 1)]),
    "f1 (0,+,-);(1,+,+)": (seed_case1, [NodeSpec1(0, 1, -1),
                                        NodeSpec1(1, 1, 1)]),
    "f2 (1,+)": (seed_case2, [NodeSpec2(1, 1)]),
    "f2 (0,-)": (seed_case2, [NodeSpec2(0, -1)]),
}


@pytest.mark.parametrize("name", sorted(_INTERP_CASES))
def test_interp_matches_reference_symbolic(name):
    seed, specs = _INTERP_CASES[name]
    nodes = _nodes(seed, specs)
    assert _outcome(rat_interpolate, nodes) == \
        _outcome(_ref_rat_interpolate, nodes)


def test_interp_matches_reference_criterion5():
    draws = _criterion5_nodes(20)
    assert len(draws) >= 15
    for nodes in draws:
        assert _outcome(rat_interpolate, nodes) == \
            _outcome(_ref_rat_interpolate, nodes)


def test_interp_matches_reference_edge_cases():
    cases = [
        [InterpNode(0, 1), InterpNode(1, 0), InterpNode(-1, 0)],
        [InterpNode(2 + 4 * nu, 1), InterpNode(4 * nu + 2, z)],
        [InterpNode(0, 0), InterpNode(1, 0)],
        [InterpNode(0, 1), InterpNode(1, 2)],
        [InterpNode(0, z), InterpNode(1, z + 1), InterpNode(-1, z - 1)],
    ]
    want = [UnsolvableSystem, DuplicateNode, None, None, None]
    for nodes, exc in zip(cases, want):
        got = _outcome(rat_interpolate, nodes)
        assert got == _outcome(_ref_rat_interpolate, nodes)
        if exc is not None:
            assert got is exc


def _pade_inputs(monkeypatch, generate, arg):
    """The (series, spec) pairs a continuous-family generator hands to Pade."""
    seen = []

    def spy(Y, spec):
        seen.append((Y, spec))
        return pade_from_series(Y, spec)

    monkeypatch.setattr(families, "pade_from_series", spy)
    generate(arg)
    return seen


@pytest.mark.parametrize("generate, arg", [
    (families.gen_family3_log, LogPolyPair(a + t, b)),
    (families.gen_family3_log, LogPolyPair(t ** 2 + a * t - 3, b)),
    (families.gen_family3_log, LogPolyPair(t ** 2 + a * t + 4, b)),
    (families.gen_family3_poly, z ** 3 + a * z ** 2 + b * z + 2),
    (families.gen_family3_poly, z ** 3 + a * z ** 2 + b * z - 4),
    (families.gen_family3_poly, z ** 2 + a * z - 1),
    (families.gen_family3_poly, z ** 5 + a * z ** 3 + b),
])
def test_pade_matches_reference(monkeypatch, generate, arg):
    for Y, spec in _pade_inputs(monkeypatch, generate, arg):
        assert _outcome(pade_from_series, Y, spec) == \
            _outcome(_ref_pade_from_series, Y, spec)


def test_pade_matches_reference_degenerate():
    cases = [
        (ESeries.from_list([1, 1, 1]), DegreeSpec(0, 1)),
        (ESeries.from_list([z, 1 + z, z ** 2, sp.Integer(7)]),
         DegreeSpec.for_count(4)),
        (ESeries.from_list([1, 0, 0, 0, 1]), DegreeSpec(1, 1)),
        (ESeries.from_list([0, 1, z]), DegreeSpec(1, 1)),
        (ESeries.from_list([1, z]), DegreeSpec(1, 1)),
    ]
    for Y, spec in cases:
        assert _outcome(pade_from_series, Y, spec) == \
            _outcome(_ref_pade_from_series, Y, spec)
