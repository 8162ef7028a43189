"""Reference values and output checks written in plain sympy.

Nothing here imports specpot.  The potentials, gauges and eigenfunction
tables are the paper's worked examples, the H formulas are the paper's, and
documents are read with sympy's own parser, so a defect in specpot cannot
hide in the code that checks it.  Every check returns a list of problems;
an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math

import sympy as sp
from sympy import Rational as Q
from sympy.parsing.sympy_parser import (
    convert_xor,
    parse_expr,
    standard_transformations,
)

z, E, nu, a, b, c, d, t = sp.symbols("z E nu a b c d t")
INTERVALS = ("R", "R+", "R-")

_NAMES = {s.name: s for s in (z, E, nu, a, b, c, d, t)}
_NAMES.update(ln=sp.log, sqrt=sp.sqrt, exp=sp.exp)
_TRANSFORMS = standard_transformations + (convert_xor,)


def parse(text):
    """Read an expression written in specpot's dialect (``^``, ``ln``)."""
    return parse_expr(text, local_dict=dict(_NAMES), transformations=_TRANSFORMS)


def same(x, y):
    """Exact equality: the numerator of x - y expands to zero."""
    return sp.expand(sp.numer(sp.together(sp.sympify(x) - sp.sympify(y)))) == 0


def proportional(x, y):
    ratio = sp.cancel(sp.together(sp.sympify(x) / sp.sympify(y)))
    return ratio != 0 and not ratio.has(z)


# ---------------------------------------------------------------- paper values

_u1 = 2 * z ** 2 + 1
_u2 = z ** 2 + 2 * z + 2
_ALL_L2 = {"R": True, "R+": True, "R-": True}

#: family 1, node (1,+,+), nu = -3/4; eigenfunctions exp(-z^2/2) * f
ANHARMONIC = {
    "family": "1", "nu": Q(-3, 4), "nodes": [(1, 1, 1)],
    "V": -z ** 2 - 2 - 8 / _u1 + 16 / _u1 ** 2,
    "H": (E - 3) * z ** 2,
    "w_roots": [(Q(3), 1)],
    "pairs": {
        Q(-1): (-z ** 2 / 2, 1 / _u1, _ALL_L2),
        Q(5): (-z ** 2 / 2, z * (2 * z ** 2 + 3) / _u1, _ALL_L2),
        Q(7): (-z ** 2 / 2, (4 * z ** 4 + 4 * z ** 2 - 1) / _u1, _ALL_L2),
        Q(9): (-z ** 2 / 2, z * (4 * z ** 4 - 5) / _u1, _ALL_L2),
    },
}

#: family 2, nodes (0,-) and (1,+) fused at nu = -1/2.  M is the gauge of
#: this potential; V and the double root of w are the paper's.
FUSION = {
    "family": "2", "nu": Q(-1, 2), "nodes": [(0, -1), (1, 1)],
    "M": (-4 * E * z ** 2 - 8 * E * z - 8 * E + z ** 2 - 6 * z - 2)
    / (4 * z ** 2),
    "V": 1 / z - 4 / _u2 + 8 / _u2 ** 2,
    "w_roots": [(Q(-1, 4), 2)],
    "pairs": {
        Q(-1, 4): (z / 2, z / _u2, {"R": False, "R+": False, "R-": True}),
        Q(-1, 16): (-z / 4, z * (z ** 3 + 6 * z ** 2 + 18 * z + 24) / _u2,
                    {"R": False, "R+": True, "R-": False}),
        Q(-1, 36): (-z / 6, z * (z ** 4 - 4 * z ** 3 - 40 * z ** 2 - 144 * z
                                 - 216) / _u2,
                    {"R": False, "R+": True, "R-": False}),
        Q(-1, 64): (-z / 8, z * (z ** 5 - 30 * z ** 4 + 50 * z ** 3
                                 + 800 * z ** 2 + 3200 * z + 5120) / _u2,
                    {"R": False, "R+": True, "R-": False}),
    },
}

_u3 = 2 * z ** 2 + b
#: the continuous log-series example, P1 = a + t, P2 = b
CONTINUOUS_LOG = {
    "family": "3log", "nu": Q(0), "P1": a + t, "P2": b,
    "M": (2 * E * z ** 2 + E * b - 2) / (4 * z),
    "H": E ** 2 * _u3 ** 2 / 4,
    "V": 1 / (4 * z ** 2) - 8 / _u3 + 16 * b / _u3 ** 2,
}

_den4 = 3 * a ** 2 * z + 12 * a * z ** 2 + 16 * z ** 3 + a * b - 2 * c
#: the continuous polynomial-series example, F = z^4 + a z^3 + b z^2 + c z + d
CONTINUOUS_POLY = {
    "family": "3poly", "nu": Q(1, 2),
    "F": z ** 4 + a * z ** 3 + b * z ** 2 + c * z + d,
    "M": -3 * (4 * z + a) ** 2 * E / (_den4 * E - 12 * a - 48 * z),
    "V": (-96 * z - 24 * a) / _den4
    - (18 * a ** 4 + 72 * a ** 3 * z - 72 * a ** 2 * b - 288 * a * b * z
       + 144 * a * c + 576 * c * z) / _den4 ** 2,
    "w_roots": [(Q(0), 3)],
}

PAPER = {"anharmonic": ANHARMONIC, "fusion": FUSION,
         "continuous-log": CONTINUOUS_LOG, "continuous-poly": CONTINUOUS_POLY}

_CASE = {"1": "C1", "2": "C2", "3log": "C3", "3poly": "C3"}


def H_formula(family, M, nu_val):
    """The paper's H(z, E) as a function of the gauge M, per case."""
    Mp = sp.diff(M, z)
    case = _CASE[family]
    if case == "C1":
        return (M ** 2 * z ** 2 + M * z - Mp * z ** 2 - z ** 4 + z ** 2 * E
                - 4 * nu_val ** 2 + 1)
    extra = 4 * z if case == "C2" else 0
    return (4 * M ** 2 * z ** 2 + 4 * z ** 2 * E - 4 * Mp * z ** 2
            - 4 * nu_val ** 2 + extra + 1)


def node_energy(family, node, nu_val):
    if family == "1":
        k, e1, e2 = node
        return e1 * (4 * k + 2) + 4 * e2 * nu_val
    k, e = node
    return -1 / (2 * e * nu_val + 2 * k + 1) ** 2


def candidate_energies(family, nu_val, kmax):
    """The lemma energies with k <= kmax at a numeric nu."""
    out = set()
    for k in range(kmax + 1):
        if family == "1":
            out |= {node_energy("1", (k, e1, e2), nu_val)
                    for e1 in (1, -1) for e2 in (1, -1)}
        else:
            out |= {node_energy("2", (k, e), nu_val) for e in (1, -1)
                    if 2 * e * nu_val + 2 * k + 1 != 0}
    return out


# --------------------------------------------------------------------- checks

def check_potential(family, nu_val, M, H, V, w_roots, nodes=None):
    """Problems with one generated potential; M and H may be None."""
    problems = []
    if E in V.free_symbols:
        problems.append("V depends on E: %s" % V)
    if nu_val.is_Rational and nu in V.free_symbols:
        problems.append("V depends on nu at numeric nu")
    if M is not None and H is not None and family in _CASE:
        if not same(H, H_formula(family, M, nu_val)):
            problems.append("H differs from the paper's H(M)")
    if nodes and H is not None:
        num = sp.fraction(sp.cancel(sp.together(H)))[0]
        roots = {}
        for r, m in w_roots:
            roots[r] = roots.get(r, 0) + m
        wanted = {}
        for nd in nodes:
            e0 = sp.cancel(node_energy(family, nd, nu_val))
            wanted[e0] = wanted.get(e0, 0) + 1
        for e0, mult in wanted.items():
            if sp.expand(num.subs(E, e0)) != 0:
                problems.append("H does not vanish at node energy %s" % e0)
            if nu_val.is_Rational and roots.get(e0, 0) < mult:
                problems.append("w root %s missing or of low multiplicity"
                                % e0)
    return problems


def check_paper(name, M, H, V, w_roots):
    """Compare a potential with one of the paper's examples."""
    ref = PAPER[name]
    problems = []
    for key, got in (("M", M), ("H", H), ("V", V)):
        if key in ref and (got is None or not same(got, ref[key])):
            problems.append("%s of the %s example differs" % (key, name))
    if "w_roots" in ref:
        got_roots = sorted((sp.sympify(r), int(m)) for r, m in w_roots)
        if got_roots != sorted(ref["w_roots"]):
            problems.append("w roots of the %s example: %s" % (name, got_roots))
    return problems


def check_eigenpair(V, E0, psi):
    """psi is an exact eigenfunction of V at E0."""
    residual = sp.simplify(sp.diff(psi, z, 2) + (V + E0) * psi)
    if residual != 0:
        return ["eigenfunction residual at E0 = %s is %s" % (E0, residual)]
    return []


def check_spectrum(V, family, nu_val, kmax, interval, pairs, paper=None):
    """pairs: (E0, carrier, rational part, l2 flags) per returned pair."""
    problems = []
    candidates = candidate_energies(family, nu_val, kmax)
    seen = {}
    for E0, carrier, rational, l2 in pairs:
        seen[E0] = (carrier, rational, l2)
        if E0 not in candidates:
            problems.append("E0 = %s is not a candidate energy" % E0)
        if not l2.get(interval):
            problems.append("pair at %s kept but not L2 on %s" % (E0, interval))
        problems += check_eigenpair(V, E0, sp.exp(carrier) * rational)
    if paper is not None:
        for E0, (carrier, rational, l2) in PAPER[paper]["pairs"].items():
            if E0 not in candidates or not l2[interval]:
                if E0 in seen:
                    problems.append("E0 = %s should be filtered out" % E0)
                continue
            if E0 not in seen:
                problems.append("paper eigenpair at %s missing" % E0)
                continue
            got_carrier, got_rational, got_l2 = seen[E0]
            if got_carrier != carrier or not proportional(got_rational,
                                                          rational):
                problems.append("eigenfunction at %s differs from paper" % E0)
            if got_l2 != l2:
                problems.append("L2 flags at %s: %s" % (E0, got_l2))
    return problems


def read_document(path):
    """Read a potential document with sympy's parser.

    Returns (doc, fields) where fields maps M, H, V to expressions (None
    when absent), checking each string encoding against its table.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    fields = {}
    for key in ("M", "H", "V"):
        payload = doc.get(key)
        if payload is None or payload.get("infinite"):
            fields[key] = None
            continue
        expr = parse(payload["expr"])
        table = _table(payload["num"]) / _table(payload["den"])
        if not same(expr, table):
            raise ValueError("%s: string and table encodings differ" % key)
        fields[key] = expr
    fields["nu"] = parse(doc["nu"])
    fields["w_roots"] = [(parse(r), int(m)) for r, m in doc["w_roots"]]
    return doc, fields


def _table(rows):
    return sum(parse(n) / parse(dd) * E ** i * z ** j
               for i, row in enumerate(rows) for j, (n, dd) in enumerate(row))


def document_nodes(doc):
    prov = doc["provenance"]
    if prov["kind"] in ("nodes1", "nodes2"):
        return [tuple(nd) for nd in prov["nodes"]]
    return None


def check_document(path, family, nu_val, paper=None):
    """Problems with a document written by ``specpot gen``."""
    try:
        doc, f = read_document(path)
    except (OSError, ValueError, KeyError, SyntaxError, TypeError) as exc:
        return ["unreadable document: %s" % exc]
    problems = []
    if doc["family"] != family:
        problems.append("family %s, expected %s" % (doc["family"], family))
    if f["nu"] != nu_val:
        problems.append("nu %s, expected %s" % (f["nu"], nu_val))
    problems += check_potential(family, nu_val, f["M"], f["H"], f["V"],
                                f["w_roots"], document_nodes(doc))
    if paper is not None:
        problems += check_paper(paper, f["M"], f["H"], f["V"], f["w_roots"])
    return problems


def check_plotdata(text, V, psis, lo, hi, samples):
    """Compare a plotdata table with a float evaluation of V and each psi."""
    rows = [row.split("\t") for row in text.strip().splitlines()]
    if len(rows) != samples + 1 or len(rows[0]) != 2 + len(psis):
        return ["plotdata has shape %d x %d" % (len(rows), len(rows[0]))]
    problems = []
    exprs = [V] + list(psis)
    for i, row in enumerate(rows[1:]):
        point = lo + (hi - lo) * Q(i, samples - 1)
        for expr, cell in zip(exprs, row[1:]):
            value = expr.subs(z, point)
            if value.has(sp.zoo, sp.oo, -sp.oo, sp.nan):
                if cell != "":
                    problems.append("value %s at pole z = %s" % (cell, point))
                continue
            want = float(value)
            if cell == "" or not math.isclose(float(cell), want,
                                              rel_tol=1e-9, abs_tol=1e-12):
                problems.append("plotdata %r at z = %s, expected %r"
                                % (cell, point, want))
    return problems


def check_latex(text, n_lines, V=None):
    """The LaTeX render has one display per field and, when V is given,
    shows V's partial fractions."""
    lines = text.strip().splitlines()
    problems = []
    if len(lines) != n_lines:
        problems.append("latex has %d lines, expected %d" % (len(lines),
                                                             n_lines))
    if not all(ln.startswith("\\[") and ln.endswith("\\]") for ln in lines):
        problems.append("latex line not wrapped in \\[ \\]")
    if V is not None:
        want = "V(z) = %s" % sp.latex(sp.apart(V, z))
        if not any(want in ln for ln in lines):
            problems.append("latex lacks %r" % want)
    return problems
