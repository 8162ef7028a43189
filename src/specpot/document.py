"""Potential documents: the JSON artifact written and read by the CLI.

Each rational function is stored twice: as a canonical expression string and
as a structured coefficient table (E-degree major, then z-degree, each entry
a reduced fraction of integer-coefficient polynomial strings in the
remaining parameters).  The two encodings are checked against each other on
load.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List

import sympy as sp

from .algebra import E, normalize, rat_equal, z
from .errors import SpecpotError
from .expressions import parse_expr, print_expr
from .families import LogPolyPair, PotentialResult
from .gauge import CASES, M_INFINITY
from .seeds import NodeSpec1, NodeSpec2
from .spectrum import EigenPair, INTERVALS, _closed_form

SCHEMA_VERSION = 1


def _coeff_pair(coeff):
    num, den = sp.fraction(sp.cancel(sp.together(coeff)))
    return [print_expr(sp.expand(num)), print_expr(sp.expand(den))]


def _poly_table(poly_expr):
    """Nested coefficient lists of a polynomial in (z, E): table[i][j] is the
    coefficient of E**i * z**j."""
    poly = sp.Poly(poly_expr, E, z)
    deg_E = poly.degree(E) if poly_expr != 0 else 0
    deg_z = poly.degree(z) if poly_expr != 0 else 0
    table = []
    for i in range(max(deg_E, 0) + 1):
        row = []
        for j in range(max(deg_z, 0) + 1):
            row.append(_coeff_pair(poly.coeff_monomial(E ** i * z ** j)))
        table.append(row)
    return table


def _table_to_poly(table):
    total = sp.Integer(0)
    for i, row in enumerate(table):
        for j, (num_s, den_s) in enumerate(row):
            total += parse_expr(num_s) / parse_expr(den_s) * E ** i * z ** j
    return sp.expand(total)


def encode_ratfun(expr):
    expr = normalize(expr)
    num, den = sp.fraction(expr)
    return {
        "expr": print_expr(expr),
        "num": _poly_table(num),
        "den": _poly_table(den),
    }


def decode_ratfun(payload):
    expr = parse_expr(payload["expr"])
    structured = _table_to_poly(payload["num"]) / _table_to_poly(payload["den"])
    if not rat_equal(expr, structured):
        raise SpecpotError("structured and string encodings disagree")
    return normalize(expr)


def _encode_provenance(result: PotentialResult):
    prov = result.provenance
    if result.family == "1":
        return {"kind": "nodes1",
                "nodes": [[nd.k, nd.eps1, nd.eps2] for nd in prov]}
    if result.family == "2":
        return {"kind": "nodes2", "nodes": [[nd.k, nd.eps] for nd in prov]}
    if result.family == "3log":
        return {"kind": "logpair", "P1": print_expr(prov.P1),
                "P2": print_expr(prov.P2)}
    if result.family == "3poly":
        return {"kind": "poly", "F": print_expr(prov)}
    return {"kind": "singular", "case": result.case_tag}


def _decode_provenance(payload, family):
    kind = payload["kind"]
    if kind == "nodes1":
        return [NodeSpec1(k, e1, e2) for (k, e1, e2) in payload["nodes"]]
    if kind == "nodes2":
        return [NodeSpec2(k, e) for (k, e) in payload["nodes"]]
    if kind == "logpair":
        return LogPolyPair(parse_expr(payload["P1"]), parse_expr(payload["P2"]))
    if kind == "poly":
        return parse_expr(payload["F"])
    return payload["case"]


@dataclass
class PotentialDocument:
    result: PotentialResult
    eigenpairs: List[EigenPair] = field(default_factory=list)

    def to_dict(self):
        res = self.result
        doc = {
            "schema_version": SCHEMA_VERSION,
            "family": res.family,
            "case": res.case_tag,
            "nu": print_expr(res.nu),
            "provenance": _encode_provenance(res),
            "M": ({"infinite": True} if res.M is M_INFINITY
                  else encode_ratfun(res.M)),
            "H": None if res.H is None else encode_ratfun(res.H),
            "V": encode_ratfun(res.V),
            "w_roots": [[print_expr(root), int(mult)]
                        for (root, mult) in res.w_roots],
            "eigenpairs": [
                {
                    "E0": print_expr(pair.E0),
                    "psi": print_expr(pair.psi),
                    "l2": {iv: bool(pair.l2.get(iv, False))
                           for iv in INTERVALS},
                }
                for pair in self.eigenpairs
            ],
        }
        return doc

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())

    @staticmethod
    def from_dict(doc) -> "PotentialDocument":
        """Decode a document; a malformed one raises :class:`SpecpotError`."""
        try:
            return PotentialDocument._decode(doc)
        except (AttributeError, KeyError, TypeError) as exc:
            raise SpecpotError("malformed document: %s %s" %
                               (type(exc).__name__, exc)) from exc

    @staticmethod
    def _decode(doc) -> "PotentialDocument":
        if doc.get("schema_version") != SCHEMA_VERSION:
            raise SpecpotError("unsupported schema version %r" %
                               doc.get("schema_version"))
        if doc["case"] not in CASES:
            raise SpecpotError("unknown case %r" % doc["case"])
        family = doc["family"]
        M = (M_INFINITY if doc["M"].get("infinite")
             else decode_ratfun(doc["M"]))
        H = None if doc["H"] is None else decode_ratfun(doc["H"])
        V = decode_ratfun(doc["V"])
        w_roots = tuple((parse_expr(rs), int(mult))
                        for (rs, mult) in doc["w_roots"])
        result = PotentialResult(
            family=family,
            nu=parse_expr(doc["nu"]),
            M=M, H=H, w_roots=w_roots, V=V,
            provenance=_decode_provenance(doc["provenance"], family),
            case_tag=doc["case"],
        )
        eigenpairs = []
        for entry in doc["eigenpairs"]:
            q, num, den = _closed_form(parse_expr(entry["psi"]))
            eigenpairs.append(EigenPair(
                E0=sp.Rational(parse_expr(entry["E0"])),
                carrier=q, num=num, den=den,
                l2={iv: bool(entry["l2"][iv]) for iv in INTERVALS}))
        return PotentialDocument(result=result, eigenpairs=eigenpairs)

    @staticmethod
    def load(path) -> "PotentialDocument":
        with open(path, "r", encoding="utf-8") as fh:
            return PotentialDocument.from_dict(json.load(fh))
