"""Command-line front end.

Commands::

    specpot gen --family {1|2|3log|3poly|4|singular} [--nu RAT]
                [--nodes LIST] [--P1 POLY --P2 POLY] [--F POLY]
                [--case {1|2|3|4}] --out FILE
    specpot verify --in FILE
    specpot spectrum --in FILE --kmax N --interval {R|R+|R-}
    specpot render --in FILE --format {json|latex|plotdata}
                   [--range LO:HI --samples N]

Exit codes: 0 success, 1 mathematical failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import re
import sys

import sympy as sp

from . import families, gauge, spectrum as spectrum_mod
from .algebra import normalize, nu, rat_equal, z
from .document import PotentialDocument
from .errors import SpecpotError, UnboundParameter
from .expressions import parse_expr, print_expr
from .families import LogPolyPair
from .gauge import CASES, M_INFINITY
from .seeds import NodeSpec1, NodeSpec2

_NODE1 = re.compile(r"^\(\s*(\d+)\s*,\s*([+-])\s*,\s*([+-])\s*\)$")
_NODE2 = re.compile(r"^\(\s*(\d+)\s*,\s*([+-])\s*\)$")


class UsageError(Exception):
    pass


def _parse_nodes(text, family):
    nodes = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if family == "1":
            m = _NODE1.match(chunk)
            if not m:
                raise UsageError("bad family-1 node %r, expected (k,+,-)" % chunk)
            nodes.append(NodeSpec1(int(m.group(1)),
                                   1 if m.group(2) == "+" else -1,
                                   1 if m.group(3) == "+" else -1))
        else:
            m = _NODE2.match(chunk)
            if not m:
                raise UsageError("bad family-2 node %r, expected (k,+)" % chunk)
            nodes.append(NodeSpec2(int(m.group(1)),
                                   1 if m.group(2) == "+" else -1))
    return nodes


def _parse_rational(text):
    try:
        return sp.Rational(text)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise UsageError("bad rational %r" % text) from exc


def _cmd_gen(args):
    if args.out is None:
        raise UsageError("gen requires --out")
    if args.nu is not None and args.family in ("3log", "3poly", "4"):
        raise UsageError("family %s takes no --nu" % args.family)
    nu_val = nu if args.nu is None else _parse_rational(args.nu)
    if args.family in ("1", "2"):
        nodes = _parse_nodes(args.nodes or "", args.family)
        generate = families.gen_family1 if args.family == "1" \
            else families.gen_family2
        result = generate(nodes, nu)
        if args.nu is not None:
            result = families.result_at_nu(result, nu_val)
    elif args.family == "3log":
        if args.P1 is None or args.P2 is None:
            raise UsageError("family 3log requires --P1 and --P2")
        result = families.gen_family3_log(
            LogPolyPair(parse_expr(args.P1), parse_expr(args.P2)))
    elif args.family == "3poly":
        if args.F is None:
            raise UsageError("family 3poly requires --F")
        result = families.gen_family3_poly(parse_expr(args.F))
    elif args.family == "4":
        result = families.gen_family4()
    elif args.family == "singular":
        if args.case is None:
            raise UsageError("family singular requires --case")
        result = families.singular_potential(CASES["C" + args.case], nu_val)
    else:
        raise UsageError("unknown family %r" % args.family)
    PotentialDocument(result=result).save(args.out)
    print("wrote %s  (V = %s)" % (args.out, print_expr(result.V)))
    return 0


def _canonical_roots(w_roots):
    return sorted((str(normalize(root)), mult) for root, mult in w_roots)


def _cmd_verify(args):
    doc = PotentialDocument.load(args.infile)
    res = doc.result
    H, structure, V = gauge.certify(CASES[res.case_tag], res.M, res.nu)
    if not rat_equal(V, res.V):
        raise SpecpotError("stored V disagrees with its gauge")
    H_matches = (H is None) == (res.H is None) and (
        H is None or rat_equal(H, res.H))
    if not H_matches:
        raise SpecpotError("stored H disagrees with its gauge")
    w_roots = () if structure is None else structure.w_roots
    if _canonical_roots(w_roots) != _canonical_roots(res.w_roots):
        raise SpecpotError("stored w_roots disagree with H")
    for pair in doc.eigenpairs:
        spectrum_mod._assert_residual_zero(res.V, pair.E0, pair)
        if pair.l2 != spectrum_mod._l2_flags(pair):
            raise SpecpotError("stored L2 flags disagree with psi")
    print("ok: residual identically zero, structure condition holds, "
          "stored V, H, w_roots and L2 flags match")
    return 0


def _cmd_spectrum(args):
    if args.kmax < 0:
        raise UsageError("--kmax must be nonnegative")
    doc = PotentialDocument.load(args.infile)
    pairs = spectrum_mod.spectrum_table(doc.result, args.kmax,
                                        interval=args.interval)
    doc.eigenpairs = pairs
    doc.save(args.infile)
    print("E0\tpsi\tL2(R)\tL2(R+)\tL2(R-)")
    for pair in pairs:
        print("%s\t%s\t%s\t%s\t%s" % (
            print_expr(pair.E0), print_expr(pair.psi),
            pair.l2["R"], pair.l2["R+"], pair.l2["R-"]))
    return 0


def render_latex(doc: PotentialDocument) -> str:
    res = doc.result
    lines = []
    if res.M is not M_INFINITY:
        lines.append("M(z,E) = %s" % sp.latex(res.M))
    if res.H is not None:
        lines.append("H(z,E) = %s" % sp.latex(sp.factor(res.H)))
    lines.append("V(z) = %s" % sp.latex(_partial_fractions(res.V)))
    for pair in doc.eigenpairs:
        lines.append("\\psi_{%s}(z) = %s" % (sp.latex(pair.E0),
                                             sp.latex(pair.psi)))
    return "\n".join("\\[ %s \\]" % ln for ln in lines) + "\n"


def _partial_fractions(V):
    try:
        return sp.apart(V, z)
    except (sp.PolynomialError, NotImplementedError):
        return sp.together(V)


def plot_data(doc: PotentialDocument, lo, hi, samples: int) -> str:
    """Tab-separated numeric table: z, V(z), one eigenfunction per column."""
    res = doc.result
    exprs = [res.V] + [pair.psi for pair in doc.eigenpairs]
    free = set().union(*(e.free_symbols for e in exprs)) - {z}
    if free:
        raise UnboundParameter(", ".join(sorted(s.name for s in free)))
    header = ["z", "V"] + ["psi_%s" % print_expr(p.E0) for p in doc.eigenpairs]
    rows = [header]
    lo, hi = sp.Rational(lo), sp.Rational(hi)
    for i in range(samples):
        if samples == 1:
            point = lo
        else:
            point = lo + (hi - lo) * sp.Rational(i, samples - 1)
        row = [str(float(point))]
        for expr in exprs:
            value = expr.subs(z, point)
            if value.has(sp.zoo, sp.oo, -sp.oo, sp.nan):
                row.append("")
            else:
                row.append("%.17g" % float(value))
        rows.append(row)
    return "\n".join("\t".join(row) for row in rows) + "\n"


def _cmd_render(args):
    doc = PotentialDocument.load(args.infile)
    if args.format == "json":
        sys.stdout.write(doc.dumps())
    elif args.format == "latex":
        sys.stdout.write(render_latex(doc))
    else:
        if args.range is None:
            raise UsageError("plotdata requires --range LO:HI")
        try:
            lo, hi = args.range.split(":")
        except ValueError as exc:
            raise UsageError("bad --range, expected LO:HI") from exc
        if args.samples < 1:
            raise UsageError("--samples must be positive")
        lo, hi = _parse_rational(lo), _parse_rational(hi)
        sys.stdout.write(plot_data(doc, lo, hi, args.samples))
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="specpot",
        description="Generate, verify and analyze quantum-integrable "
                    "rational potentials.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a potential document")
    gen.add_argument("--family", required=True,
                     choices=["1", "2", "3log", "3poly", "4", "singular"])
    gen.add_argument("--nu", default=None)
    gen.add_argument("--nodes", default=None)
    gen.add_argument("--P1", default=None)
    gen.add_argument("--P2", default=None)
    gen.add_argument("--F", default=None)
    gen.add_argument("--case", default=None, choices=["1", "2", "3", "4"])
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)

    ver = sub.add_parser("verify", help="re-verify a document")
    ver.add_argument("--in", dest="infile", required=True)
    ver.set_defaults(func=_cmd_verify)

    spec = sub.add_parser("spectrum", help="compute the discrete spectrum")
    spec.add_argument("--in", dest="infile", required=True)
    spec.add_argument("--kmax", type=int, required=True)
    spec.add_argument("--interval", default="R", choices=["R", "R+", "R-"])
    spec.set_defaults(func=_cmd_spectrum)

    ren = sub.add_parser("render", help="emit JSON, LaTeX or plot data")
    ren.add_argument("--in", dest="infile", required=True)
    ren.add_argument("--format", required=True,
                     choices=["json", "latex", "plotdata"])
    ren.add_argument("--range", default=None)
    ren.add_argument("--samples", type=int, default=101)
    ren.set_defaults(func=_cmd_render)
    return parser


_VALUE_FLAGS = {"--nu", "--nodes", "--P1", "--P2", "--F", "--range"}


def _join_negative_values(argv):
    """Fold ``--nu -3/4`` into ``--nu=-3/4`` so argparse does not mistake
    leading-minus values for option names."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv) \
                and argv[i + 1].startswith("-"):
            out.append("%s=%s" % (tok, argv[i + 1]))
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _join_negative_values(list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except SpecpotError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
