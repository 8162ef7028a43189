import json
import pathlib

import pytest
import sympy as sp
from sympy import Rational as Q

from specpot.algebra import b, rat_equal, z
from specpot.cli import main
from specpot.document import PotentialDocument, encode_ratfun
from specpot.expressions import parse_expr

GOLDENS = pathlib.Path(__file__).parent / "goldens"


def _gen_anharmonic(path):
    assert main(["gen", "--family", "1", "--nu", "-3/4",
                 "--nodes", "(1,+,+)", "--out", str(path)]) == 0


def _gen_fusion(path):
    assert main(["gen", "--family", "2", "--nu", "-1/2",
                 "--nodes", "(0,-);(1,+)", "--out", str(path)]) == 0


def _squash(text):
    return "".join(text.split())


def test_gen_anharmonic(tmp_path):
    path = tmp_path / "anh.json"
    _gen_anharmonic(path)
    doc = PotentialDocument.load(path)
    u = 2 * z ** 2 + 1
    assert rat_equal(doc.result.V, -z ** 2 - 2 - 8 / u + 16 / u ** 2)


def test_gen_log_family(tmp_path):
    path = tmp_path / "log.json"
    assert main(["gen", "--family", "3log", "--P1", "a+t", "--P2", "b",
                 "--out", str(path)]) == 0
    doc = PotentialDocument.load(path)
    u = 2 * z ** 2 + b
    assert rat_equal(doc.result.V, 1 / (4 * z ** 2) - 8 / u + 16 * b / u ** 2)


def test_spectrum_command(tmp_path, capsys):
    path = tmp_path / "anh.json"
    _gen_anharmonic(path)
    capsys.readouterr()
    assert main(["spectrum", "--in", str(path), "--kmax", "3",
                 "--interval", "R"]) == 0
    out = capsys.readouterr().out
    lines = [ln.split("\t") for ln in out.strip().splitlines()[1:]]
    energies = {ln[0] for ln in lines}
    assert {"-1", "5", "7", "9", "11", "13"} <= energies
    assert "3" not in energies
    # the eigenpairs are persisted back into the document
    doc = PotentialDocument.load(path)
    assert {p.E0 for p in doc.eigenpairs} >= {-1, 5, 7, 9, 11, 13}


def test_spectrum_nodeless_family1(tmp_path, capsys):
    # no nodes: M = infinity, V = -z^2, the harmonic oscillator; the
    # document must stay a family-1 document that spectrum accepts
    path = tmp_path / "osc.json"
    assert main(["gen", "--family", "1", "--nu", "1/4",
                 "--out", str(path)]) == 0
    doc = PotentialDocument.load(path)
    assert doc.result.family == "1"
    assert rat_equal(doc.result.V, -z ** 2)
    capsys.readouterr()
    assert main(["spectrum", "--in", str(path), "--kmax", "1"]) == 0
    capsys.readouterr()
    pairs = PotentialDocument.load(path).eigenpairs
    assert [p.E0 for p in pairs] == [1, 3, 5, 7]
    assert [p.num for p in pairs] == [1, z, z ** 2 - Q(1, 2),
                                      z ** 3 - 3 * z / 2]
    assert all(p.carrier == -z ** 2 / 2 and p.den == 1 for p in pairs)


def test_spectrum_negative_kmax(tmp_path, capsys):
    path = tmp_path / "anh.json"
    _gen_anharmonic(path)
    assert main(["spectrum", "--in", str(path), "--kmax", "0"]) == 0
    assert PotentialDocument.load(path).eigenpairs
    before = path.read_text()
    capsys.readouterr()
    assert main(["spectrum", "--in", str(path), "--kmax", "-1"]) == 2
    assert capsys.readouterr().err.startswith("usage error: ")
    assert path.read_text() == before


def test_verify_command(tmp_path, capsys):
    path = tmp_path / "fus.json"
    _gen_fusion(path)
    assert main(["spectrum", "--in", str(path), "--kmax", "2",
                 "--interval", "R+"]) == 0
    capsys.readouterr()
    assert main(["verify", "--in", str(path)]) == 0
    assert "ok" in capsys.readouterr().out


def test_verify_rejects_tampering(tmp_path, capsys):
    path = tmp_path / "anh.json"
    _gen_anharmonic(path)
    payload = json.loads(path.read_text())
    tampered = payload["V"]["expr"] + " + 1/z"
    payload["V"]["expr"] = tampered
    # keep the two encodings consistent so the tampering reaches the verifier
    import specpot.document as document
    from specpot.expressions import parse_expr
    payload["V"] = document.encode_ratfun(parse_expr(tampered))
    path.write_text(json.dumps(payload))
    assert main(["verify", "--in", str(path)]) == 1


def _anharmonic_with_ground_state(path):
    """The anharmonic document with its ground state exp(-z^2/2)/(2z^2+1)
    at E0 = -1 stored as an eigenpair."""
    _gen_anharmonic(path)
    payload = json.loads(path.read_text())
    payload["eigenpairs"] = [{"E0": "-1", "psi": "exp(-z^2/2)/(2*z^2 + 1)",
                              "l2": {"R": True, "R+": True, "R-": True}}]
    path.write_text(json.dumps(payload))
    assert main(["verify", "--in", str(path)]) == 0
    return payload


def _tamper_V(payload):
    payload["V"] = encode_ratfun(2 * parse_expr(payload["V"]["expr"]))


def _tamper_H(payload):
    payload["H"] = encode_ratfun(z ** 2)


def _tamper_w_roots(payload):
    payload["w_roots"] = [["7", 5]]


def _tamper_psi(payload):
    payload["eigenpairs"][0]["psi"] = "z*exp(-z^2/2)/(2*z^2 + 1)"


def _tamper_l2(payload):
    payload["eigenpairs"][0]["l2"] = {"R": False, "R+": False, "R-": False}


def _psi_outside_field(payload):
    payload["eigenpairs"][0]["psi"] = "exp(-z^(1/2))/(2*z^2 + 1)"


@pytest.mark.parametrize("tamper", [_tamper_V, _tamper_H, _tamper_w_roots,
                                    _tamper_psi, _tamper_l2,
                                    _psi_outside_field],
                         ids=["V", "H", "w_roots", "psi", "l2",
                              "psi-outside-field"])
def test_verify_rejects_tampered_field(tmp_path, capsys, tamper):
    path = tmp_path / "anh.json"
    payload = _anharmonic_with_ground_state(path)
    tamper(payload)
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["verify", "--in", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def _drop_V(payload):
    del payload["V"]


def _unknown_case(payload):
    payload["case"] = "C9"


@pytest.mark.parametrize("spoil", [_drop_V, _unknown_case],
                         ids=["missing-V", "unknown-case"])
def test_malformed_document_exit_code(tmp_path, capsys, spoil):
    path = tmp_path / "anh.json"
    _gen_anharmonic(path)
    payload = json.loads(path.read_text())
    spoil(payload)
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    for argv in (["verify"], ["render", "--format", "json"]):
        assert main(argv + ["--in", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


def test_render_json_identity(tmp_path, capsys):
    path = tmp_path / "anh.json"
    _gen_anharmonic(path)
    capsys.readouterr()
    assert main(["render", "--in", str(path), "--format", "json"]) == 0
    assert capsys.readouterr().out == path.read_text()


@pytest.mark.parametrize("name,args,kmax", [
    ("anharmonic", ["gen", "--family", "1", "--nu", "-3/4",
                    "--nodes", "(1,+,+)"], 1),
    ("fusion", ["gen", "--family", "2", "--nu", "-1/2",
                "--nodes", "(0,-);(1,+)"], None),
    ("family3_log", ["gen", "--family", "3log", "--P1", "a+t",
                     "--P2", "b"], None),
    ("family3_poly", ["gen", "--family", "3poly",
                      "--F", "z^4+a*z^3+b*z^2+c*z+d"], None),
])
def test_latex_goldens(tmp_path, capsys, name, args, kmax):
    path = tmp_path / (name + ".json")
    assert main(args + ["--out", str(path)]) == 0
    if kmax is not None:
        assert main(["spectrum", "--in", str(path), "--kmax", str(kmax),
                     "--interval", "R"]) == 0
    capsys.readouterr()
    assert main(["render", "--in", str(path), "--format", "latex"]) == 0
    got = capsys.readouterr().out
    want = (GOLDENS / (name + ".tex")).read_text()
    assert _squash(got) == _squash(want)


def test_plotdata_anharmonic(tmp_path, capsys):
    path = tmp_path / "anh.json"
    _gen_anharmonic(path)
    capsys.readouterr()
    assert main(["render", "--in", str(path), "--format", "plotdata",
                 "--range", "-4:4", "--samples", "9"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].split("\t") == ["z", "V"]
    assert len(out) == 10
    middle = dict(zip(("z", "V"), out[5].split("\t")))
    assert middle["z"] == "0.0"
    assert abs(float(middle["V"]) - 6) < 1e-12


def test_plotdata_fusion(tmp_path, capsys):
    path = tmp_path / "fus.json"
    _gen_fusion(path)
    capsys.readouterr()
    assert main(["render", "--in", str(path), "--format", "plotdata",
                 "--range", "0:2", "--samples", "3"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    row1 = rows[2].split("\t")
    assert float(row1[0]) == 1.0
    assert abs(float(row1[1]) - 0.52) < 1e-12
    # the pole at z = 0 shows up as an empty cell
    assert rows[1].split("\t")[1] == ""


def test_plotdata_needs_bound_parameters(tmp_path, capsys):
    path = tmp_path / "log.json"
    assert main(["gen", "--family", "3log", "--P1", "a+t", "--P2", "b",
                 "--out", str(path)]) == 0
    assert main(["render", "--in", str(path), "--format", "plotdata",
                 "--range", "1:2", "--samples", "2"]) == 1


def test_usage_errors(tmp_path):
    out = str(tmp_path / "x.json")
    assert main(["gen", "--family", "1", "--nodes", "(1,+)",
                 "--out", out]) == 2          # family-1 node needs two signs
    assert main(["gen", "--family", "3log", "--out", out]) == 2
    assert main(["gen", "--family", "singular", "--out", out]) == 2
    assert main(["gen", "--family", "7", "--out", out]) == 2
    path = tmp_path / "anh.json"
    _gen_anharmonic(path)
    assert main(["render", "--in", str(path), "--format", "plotdata"]) == 2


@pytest.fixture(scope="module")
def anharmonic_doc(tmp_path_factory):
    path = tmp_path_factory.mktemp("anh") / "anh.json"
    _gen_anharmonic(path)
    return path


_PLOT = ["render", "--in", "{doc}", "--format", "plotdata"]


@pytest.mark.parametrize("argv", [
    ["gen", "--family", "1", "--nu", "1/0", "--nodes", "(1,+,+)",
     "--out", "{out}"],
    _PLOT + ["--range", "a:1"],
    _PLOT + ["--range", "1/0:1"],
    _PLOT + ["--range", "0:1", "--samples", "0"],
    _PLOT + ["--range", "0:1", "--samples", "-3"],
    # families whose nu is fixed take no --nu
    ["gen", "--family", "3log", "--nu", "1/3", "--P1", "1", "--P2", "0",
     "--out", "{out}"],
    ["gen", "--family", "3poly", "--nu", "1/3", "--F", "z^2+1",
     "--out", "{out}"],
    ["gen", "--family", "4", "--nu", "1/3", "--out", "{out}"],
], ids=["nu-1/0", "range-a", "range-1/0", "samples-0", "samples-neg",
        "nu-3log", "nu-3poly", "nu-4"])
def test_malformed_numbers_usage_error(tmp_path, capsys, anharmonic_doc,
                                       argv):
    out = tmp_path / "x.json"
    argv = [arg.format(doc=anharmonic_doc, out=out) for arg in argv]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: ")
    assert captured.out == ""
    assert not out.exists()


def test_mathematical_failure_exit_code(tmp_path):
    # nu = 1/2 makes the (0,-) node energy singular
    assert main(["gen", "--family", "2", "--nu", "1/2",
                 "--nodes", "(0,-)", "--out", str(tmp_path / "x.json")]) == 1


def test_singular_gen(tmp_path):
    path = tmp_path / "sing.json"
    assert main(["gen", "--family", "singular", "--case", "3",
                 "--nu", "1/4", "--out", str(path)]) == 0
    doc = PotentialDocument.load(path)
    assert rat_equal(doc.result.V, (Q(1, 4) - Q(1, 16)) / z ** 2)
