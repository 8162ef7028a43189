"""The benchmark's workloads: seeded inputs, the timed op, and its check.

Each workload is a fixed cycle of op templates.  The seed draws what each
template leaves free (nu, integer coefficients, intervals, plot ranges);
the cycle order and the nodes are fixed, so every run holds the same mix of
cheap and expensive ops.  The node signs are fixed too: with them drawn,
the cost of one op swings by a factor of 3 to 25, and a run holds only a
few dozen ops.  specpot sees only the generated inputs, through its public
functions and ``specpot.cli.main``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from sympy import Rational as Q

import reference as ref
from reference import a, b, t, z

@dataclass
class Op:
    kind: str                          # template name
    key: str                           # the input, for the repeated-input share
    call: Callable[[], object]         # the timed part
    check: Callable[[object, Optional[BaseException]], List[str]]
    #: the outputs compared with the stored reference of the default seed:
    #: name -> expression or list of expressions
    summarize: Optional[Callable[[object], dict]] = None


@dataclass
class Inputs:
    ops: List[Op]
    cycle: int                         # ops per pass over the templates
    #: checks of inputs built during set-up, run after the timed loop
    setup_checks: List[Callable[[], List[str]]] = field(default_factory=list)


def _cycles(templates):
    """Draw CYCLES passes over the templates, in template order."""
    return Inputs([tpl() for _ in range(CYCLES) for tpl in templates],
                  len(templates))


#: how many passes over the templates each workload draws up front; a run
#: that exhausts them starts over, which shows as repeated inputs
CYCLES = 20


def criterion5_nu(rng):
    """nu = p/q drawn like the library's randomized acceptance test."""
    while True:
        q = rng.choice([3, 4, 5, 7])
        p = rng.randint(-9, 9)
        if p != 0 and Q(2 * p, q) != int(Q(2 * p, q)):
            return Q(p, q)


def _node_text(family, nodes):
    sign = {1: "+", -1: "-"}
    return ";".join("(%d,%s)" % (nd[0], ",".join(sign[s] for s in nd[1:]))
                    for nd in nodes)


def _int_poly(rng, var, degree):
    """Monic polynomial with coefficients in -4..4, as in the acceptance test."""
    return sum(rng.randint(-4, 4) * var ** i for i in range(degree)) \
        + var ** degree


def _cli(argv):
    """Run ``specpot.cli.main`` with its output captured."""
    from specpot import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _cli_problems(outcome, error, prefix=""):
    if error is not None:
        return ["%s raised %s: %s" % (prefix, type(error).__name__, error)]
    rc, out, err = outcome
    if rc != 0:
        return ["%s exit code %s: %s" % (prefix, rc, err.strip())]
    if not out.startswith(prefix):
        return ["output %r does not start with %r" % (out[:60], prefix)]
    return []


# ---------------------------------------------------------------- gen-cli

def gen_cli(rng, workdir):
    """``specpot gen`` end to end: interp at symbolic nu, then re-certify at
    numeric nu and write the document."""
    path_count = [0]

    def out_path():
        path_count[0] += 1
        return os.path.join(workdir, "gen%d.json" % (path_count[0] % 4))

    def op(kind, argv, family, nu0, paper=None):
        path = out_path()
        key = " ".join(argv)

        def call():
            return _cli(argv + ["--out", path])

        def check(outcome, error):
            problems = _cli_problems(outcome, error, "wrote")
            return problems or ref.check_document(path, family, nu0, paper)

        def summarize(outcome):
            fields = ref.read_document(path)[1]
            return {"M": fields["M"], "V": fields["V"]}

        return Op(kind, key, call, check, summarize)

    def nodes_op(kind, family, nodes):
        nu0 = criterion5_nu(rng)
        return op(kind, ["gen", "--family", family, "--nu", str(nu0),
                         "--nodes", _node_text(family, nodes)], family, nu0)

    def coeff():
        return rng.randint(-4, 4)

    def poly_op(kind, F):
        return op(kind, ["gen", "--family", "3poly", "--F", _text(F)],
                  "3poly", Q(1, 2))

    def log_op(kind, P1, P2, paper=None):
        return op(kind, ["gen", "--family", "3log", "--P1", _text(P1),
                         "--P2", _text(P2)], "3log", Q(0), paper)

    anh, log = ref.ANHARMONIC, ref.CONTINUOUS_LOG
    templates = [
        lambda: op("anharmonic", ["gen", "--family", "1", "--nu", "-3/4",
                                  "--nodes", "(1,+,+)"], "1", anh["nu"],
                   "anharmonic"),
        lambda: nodes_op("f1-1", "1", [(1, -1, 1)]),
        lambda: log_op("continuous-log", log["P1"], log["P2"],
                       "continuous-log"),
        lambda: nodes_op("f2-1", "2", [(1, 1)]),
        lambda: poly_op("3poly-3", z ** 3 + a * z ** 2 + b * z + coeff()),
        lambda: nodes_op("f1-2", "1", [(0, 1, -1), (1, 1, 1)]),
        lambda: log_op("3log-3", t ** 2 + a * t + coeff(), b),
        lambda: poly_op("3poly-2", z ** 2 + a * z + coeff()),
        lambda: nodes_op("f2-1", "2", [(0, -1)]),
        lambda: nodes_op("f1-1", "1", [(2, 1, 1)]),
    ]
    return _cycles(templates)


def _text(expr):
    """An expression in the CLI's input dialect."""
    return str(expr).replace("**", "^")


# ---------------------------------------------------------------- spectrum

#: (name, family, nu, nodes, kmax).  Potentials and kmax are fixed: one
#: spectrum call costs from 0.2 s to 7 s depending on the node signs, and a
#: run holds fewer than twenty calls, so seeded potentials would make the
#: run-to-run spread far wider than any bound worth having.  Five of the
#: nine calls take 0.3-0.7 s, so the median falls among similar calls
#: rather than in the gap between cheap and expensive ones.
SPECTRUM_PANEL = [
    ("anharmonic", "1", Q(-3, 4), [(1, 1, 1)], 0),
    ("f1", "1", Q(-1, 4), [(0, -1, -1)], 0),
    ("fusion", "2", Q(-1, 2), [(0, -1), (1, 1)], 1),
    ("f1", "1", Q(1, 4), [(0, 1, -1)], 0),
    ("f1", "1", Q(3, 4), [(0, -1, 1)], 0),
    ("f1", "1", Q(-1, 4), [(1, -1, -1)], 0),
    ("f2", "2", Q(1, 2), [(1, 1)], 1),
    ("f1", "1", Q(-3, 4), [(0, 1, 1)], 0),
    ("f1", "1", Q(3, 4), [(0, 1, -1)], 0),
]


def fusion_result():
    """The fused potential, built from its gauge by the gauge layer.

    Generating it runs interpolation at symbolic nu (over 5 s), which would
    dominate set-up; the gauge route certifies the same potential.
    """
    from specpot import gauge
    from specpot.families import PotentialResult
    from specpot.seeds import NodeSpec2
    fus = ref.FUSION
    case = gauge.CASES["C2"]
    H = gauge.H_of(case, fus["M"], fus["nu"])
    structure = gauge.check_H_structure(H, fus["M"])
    V = gauge.V_of(case, fus["M"], fus["nu"])
    return PotentialResult(
        family="2", nu=fus["nu"], M=fus["M"], H=H,
        w_roots=structure.w_roots, V=V,
        provenance=[NodeSpec2(*nd) for nd in fus["nodes"]],
        case_tag="C2", structure=structure)


def _build_potential(name, family, nu0, nodes):
    from specpot import families
    from specpot.seeds import NodeSpec1, NodeSpec2
    if name == "fusion":
        res = fusion_result()
    elif family == "1":
        res = families.gen_family1([NodeSpec1(*nd) for nd in nodes], nu0)
    else:
        res = families.gen_family2([NodeSpec2(*nd) for nd in nodes], nu0)
    paper = name if name in ref.PAPER else None

    def check():
        problems = ref.check_potential(family, nu0, res.M, res.H, res.V,
                                       res.w_roots, nodes)
        if paper:
            problems += ref.check_paper(paper, res.M, res.H, res.V,
                                        res.w_roots)
        return problems

    return res, check


def spectrum(rng, workdir):
    """``spectrum_table`` on potentials at nu where closed forms exist."""
    from specpot import spectrum as spec
    inputs = Inputs([], len(SPECTRUM_PANEL))
    built = []
    for name, family, nu0, nodes, kmax in SPECTRUM_PANEL:
        res, check = _build_potential(name, family, nu0, nodes)
        inputs.setup_checks.append(check)
        built.append((name, family, nu0, nodes, kmax, res))

    def op(name, family, nu0, nodes, kmax, res):
        interval = rng.choice(ref.INTERVALS)
        key = "spectrum %s nu=%s nodes=%s kmax=%d" % (
            family, nu0, _node_text(family, nodes), kmax)
        paper = name if name in ref.PAPER else None

        def call():
            return spec.spectrum_table(res, kmax, interval=interval)

        def check(pairs, error):
            if error is not None:
                return ["raised %s: %s" % (type(error).__name__, error)]
            got = [(p.E0, p.carrier, p.num / p.den, dict(p.l2))
                   for p in pairs]
            return ref.check_spectrum(res.V, family, nu0, kmax, interval,
                                      got, paper)

        def summarize(pairs):
            return {"E0": [p.E0 for p in pairs], "psi": [p.psi for p in pairs]}

        return Op(name, "%s interval=%s" % (key, interval), call, check,
                  summarize)

    inputs.ops = [op(*entry) for _ in range(CYCLES) for entry in built]
    return inputs


# ---------------------------------------------------------------- docs

def docs(rng, workdir):
    """``specpot verify`` and ``render`` on documents saved in set-up."""
    from specpot import families
    from specpot.document import PotentialDocument
    from specpot.seeds import NodeSpec1, NodeSpec2
    from specpot.spectrum import EigenPair
    import sympy as sp

    def paper_pairs(name):
        out = []
        for E0, (carrier, rational, l2) in ref.PAPER[name]["pairs"].items():
            num, den = sp.fraction(sp.cancel(rational))
            out.append(EigenPair(E0=E0, carrier=carrier, num=num, den=den,
                                 l2=dict(l2)))
        return out

    F = _int_poly(rng, z, 3)
    lo = Q(-rng.randint(2, 4))
    plot = (lo, lo + 6, 13)
    log = ref.CONTINUOUS_LOG
    anh = ref.ANHARMONIC
    # (name, function making the result, eigenpairs, paper name, plottable)
    panel = [
        ("anharmonic", lambda: families.gen_family1(
            [NodeSpec1(*nd) for nd in anh["nodes"]], anh["nu"]),
         paper_pairs("anharmonic"), "anharmonic", True),
        ("fusion", fusion_result, paper_pairs("fusion"), "fusion", True),
        ("f1", lambda: families.gen_family1([NodeSpec1(1, 1, -1)],
                                            Q(2, 7)), [], None, True),
        ("f2", lambda: families.gen_family2([NodeSpec2(1, -1)], Q(-3, 5)),
         [], None, True),
        ("continuous-log", lambda: families.gen_family3_log(
            families.LogPolyPair(log["P1"], log["P2"])), [],
         "continuous-log", False),
        ("3poly", lambda: families.gen_family3_poly(F), [], None, True),
    ]
    templates = []
    setup_checks = []
    for i, (name, build, pairs, paper, plottable) in enumerate(panel):
        path = os.path.join(workdir, "doc%d-%s.json" % (i, name))
        res = build()
        PotentialDocument(result=res, eigenpairs=pairs).save(path)
        setup_checks.append(_doc_setup_check(path, res, paper))
        templates += _doc_ops(name, path, res, pairs, paper,
                              plot if plottable else None)
    return Inputs([o for _ in range(CYCLES) for o in templates],
                  len(templates), setup_checks)


def _doc_setup_check(path, res, paper):
    def check():
        problems = ref.check_document(path, res.family, res.nu, paper)
        doc, fields = ref.read_document(path)
        for entry in doc["eigenpairs"]:
            problems += ref.check_eigenpair(fields["V"], ref.parse(entry["E0"]),
                                            ref.parse(entry["psi"]))
        return problems
    return check


def _doc_ops(name, path, res, pairs, paper, plot_range):
    def op(kind, argv, check_output):
        def call():
            return _cli(argv)

        def check(outcome, error):
            prefix = "ok" if argv[0] == "verify" else ""
            problems = _cli_problems(outcome, error, prefix)
            return problems or check_output(outcome[1])

        return Op(kind, "%s %s" % (" ".join(argv), name), call, check)

    def same_json(text):
        with open(path, encoding="utf-8") as fh:
            stored = json.load(fh)
        return [] if json.loads(text) == stored else ["render json differs"]

    # M, then H when present, then V and one line per eigenpair
    n_lines = 2 + (res.H is not None) + len(pairs)
    paper_V = ref.PAPER[paper]["V"] if paper else None

    def latex(text):
        return ref.check_latex(text, n_lines, paper_V)

    def plot(text):
        doc, fields = ref.read_document(path)
        psis = [ref.parse(e["psi"]) for e in doc["eigenpairs"]]
        return ref.check_plotdata(text, fields["V"], psis, *plot_range)

    ops = [
        op("verify", ["verify", "--in", path], lambda text: []),
        op("render-json", ["render", "--in", path, "--format", "json"],
           same_json),
        op("render-latex", ["render", "--in", path, "--format", "latex"],
           latex),
    ]
    if plot_range is not None:
        lo, hi, samples = plot_range
        ops.append(op("render-plotdata",
                      ["render", "--in", path, "--format", "plotdata",
                       "--range", "%s:%s" % (lo, hi),
                       "--samples", str(samples)], plot))
    return ops


WORKLOADS = {"gen-cli": gen_cli, "spectrum": spectrum, "docs": docs}


def build(workload, seed, workdir):
    """The inputs of one workload, drawn from its seed."""
    rng = random.Random("%s/%d" % (workload, seed))
    return WORKLOADS[workload](rng, workdir)
