import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import encode_ints_oracle
from k3lattices import cli, clifford as cl, roots, serialize as ser
from k3lattices.lattices import Lattice, direct_sum, hyperbolic_u, k3_lattice, rank_one, sublattice_embedding
from k3lattices.linalg import IntMatrix


def run_cli(argv, stdin_text=""):
    """Run main() in-process with captured stdio."""
    old_in, old_out = sys.stdin, sys.stdout
    sys.stdin = io.StringIO(stdin_text)
    sys.stdout = io.StringIO()
    try:
        code = cli.main(argv)
        out = sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = old_in, old_out
    return code, out


def test_build_then_info_pipeline():
    code, built = run_cli(["lattice", "build", "l_d", "--d", "5"])
    assert code == 0
    code, info = run_cli(["lattice", "info"], stdin_text=built)
    assert code == 0
    payload = json.loads(info)
    assert payload["rank"] == 21
    assert payload["signature"] == [19, 2, 0]
    assert payload["disc"] == 10
    assert payload["disc_group"] == [10]


def test_four_squares_command():
    code, out = run_cli(["embed", "four-squares", "--m", "7"])
    assert code == 0
    assert json.loads(out) == {"m": 7, "parts": [2, 1, 1, 1]}


def test_four_squares_command_at_two_to_the_53():
    assert run_cli(["embed", "four-squares", "--m", str(1 << 53)]) == (
        0, '{"m":9007199254740992,"parts":[67108864,67108864,0,0]}\n')


def test_mindeg_default_on_u():
    code, built = run_cli(["lattice", "build", "u"])
    code, out = run_cli(["mindeg"], stdin_text=built)
    assert code == 0
    payload = json.loads(out)
    assert payload["upper_bound"] == 4
    assert payload["certificate"] == [1, 2]
    assert payload["exhaustive"] is False


def test_roots_on_e8():
    _, built = run_cli(["lattice", "build", "e8"])
    code, out = run_cli(["roots", "--norm", "2"], stdin_text=built)
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 240
    assert payload["complete"] is True


def test_embedding_complement_pipeline():
    code, out = run_cli(["embed", "ld-in-l", "--d", "3"])
    assert code == 0
    code, comp = run_cli(["complement"], stdin_text=out)
    assert code == 0
    payload = json.loads(comp)
    assert payload["source"]["rank"] == 4


def test_saturate_roundtrip():
    u = hyperbolic_u()
    emb = sublattice_embedding(u, [(2, 0)])
    blob = ser.dumps(ser.embedding_to_obj(emb))
    code, out = run_cli(["saturate"], stdin_text=blob)
    assert code == 0
    payload = json.loads(out)
    assert payload["source"]["gram"] == [[0]]


def test_verify_cert_exit_codes():
    _, built = run_cli(["lattice", "build", "u"])
    code, out = run_cli(["verify-cert", "--v", "1,2", "--degree", "4"], stdin_text=built)
    assert code == 0 and json.loads(out)["valid"] is True
    assert run_cli(["verify-cert", "--v", "1,1", "--degree", "2"], stdin_text=built) == (1, '{"valid":false}\n')


def test_walls_command():
    _, built = run_cli(["lattice", "build", "u"])
    code, out = run_cli(["walls", "--v", "1,1"], stdin_text=built)
    assert code == 0
    assert sorted(json.loads(out)["walls"]) == [[-1, 1], [1, -1]]


def test_disc_kernel_command():
    amb = direct_sum(rank_one(4), hyperbolic_u())
    iso_obj = {"lattice": ser.lattice_to_obj(amb),
               "matrix": [[-1, 0, 0], [0, 1, 0], [0, 0, 1]]}
    code, out = run_cli(["disc-kernel"], stdin_text=json.dumps(iso_obj))
    assert code == 0
    assert json.loads(out)["in_discriminant_kernel"] is False


def test_enumerate_json_and_csv():
    code, out = run_cli(["enumerate", "--rank", "2", "--max-disc", "4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 6
    code, out = run_cli(["enumerate", "--rank", "1", "--max-disc", "3", "--csv"])
    assert code == 0
    assert out.splitlines() == ["disc,count", "1,1", "2,1", "3,1"]


def test_check_disc_complement_command():
    u = hyperbolic_u()
    left = sublattice_embedding(u, [(1, -1)])
    right = sublattice_embedding(u, [(1, 1)])
    blob = json.dumps({"left": ser.embedding_to_obj(left),
                       "right": ser.embedding_to_obj(right)})
    code, out = run_cli(["check-disc-complement"], stdin_text=blob)
    assert code == 0
    assert json.loads(out) == {"disc": 2, "disc_complement": 2, "index": 2}


def test_clifford_mul_and_find_a():
    host_obj = {"rank": 2, "gram": [[1, 0], [0, 1]]}
    x = {"rank": 2, "gram": host_obj["gram"], "terms": [{"mask": 1, "coeff": "1"}]}
    y = {"rank": 2, "gram": host_obj["gram"], "terms": [{"mask": 2, "coeff": "1"}]}
    code, out = run_cli(["clifford", "mul"], stdin_text=json.dumps({"x": x, "y": y}))
    assert code == 0
    assert json.loads(out)["terms"] == [{"mask": 3, "coeff": "1"}]
    code, bare = run_cli(["clifford", "mul"], stdin_text=json.dumps({"x": x, "y": {"terms": y["terms"]}}))
    assert (code, bare) == (0, out)  # y without rank and gram lives over x's host
    code, out = run_cli(["clifford", "find-a"], stdin_text=json.dumps(host_obj))
    assert code == 0
    payload = json.loads(out)
    assert payload["a"]["terms"]


def test_clifford_find_a_at_the_paper_rank():
    for argv in (["lattice", "build", "k3"], ["lattice", "build", "l_d", "--d", "5"]):
        code, built = run_cli(argv)
        assert code == 0
        code, out = run_cli(["clifford", "find-a"], stdin_text=built)
        assert code == 0 and out.rstrip().endswith('"gram_det_nonzero":true}')
        assert json.loads(out)["a"]["terms"] == [{"coeff": "1", "mask": 3}]


def test_clifford_find_a_on_a_singular_gram_gives_one_error_line():
    proc = subprocess.run([sys.executable, "-m", "k3lattices.cli", "clifford", "find-a"],
                          input='{"rank":2,"gram":[[1,1],[1,1]]}',
                          capture_output=True, text=True, env=fresh_process_env(), timeout=60)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.splitlines() == ["error: no polarization element: det G = 0, so det phi_a = 0 for every a"]


def test_clifford_project():
    host_obj = {"rank": 1, "gram": [[1]]}
    endo = [[0, 1], [1, 0]]  # left multiplication by e0 in C(<1>)
    code, out = run_cli(["clifford", "project"],
                        stdin_text=json.dumps({"lattice": host_obj, "endo": endo}))
    assert code == 0
    assert json.loads(out)["vector"] == [1]


A2_PLUS = Lattice(3, IntMatrix([[2, 1, 0], [1, 2, 1], [0, 1, 2]]))


def test_clifford_reversal():
    x = cl.CliffordElement(A2_PLUS, {0: 1, 3: 2, 5: -1, 7: 3})
    code, out = run_cli(["clifford", "reversal"], stdin_text=json.dumps(ser.clifford_to_obj(x)))
    assert code == 0
    assert out == ser.dumps(ser.clifford_to_obj(cl.reversal(x))) + "\n"


def test_clifford_phi_a():
    x = cl.CliffordElement(A2_PLUS, {0: 1, 3: 2, 5: -1, 7: 3})
    y = cl.CliffordElement(A2_PLUS, {1: 1, 6: -2})
    a = cl.CliffordElement(A2_PLUS, {3: 1, 4: 1})
    payload = {"x": ser.clifford_to_obj(x), "y": ser.clifford_to_obj(y), "a": ser.clifford_to_obj(a)}
    code, out = run_cli(["clifford", "phi-a"], stdin_text=json.dumps(payload))
    assert code == 0
    assert out == ser.dumps({"value": cl.phi_a(x, y, a)}) + "\n"
    assert json.loads(out)["value"] != 0


def test_clifford_gspin_on_k3_lattice():
    lam = k3_lattice()
    v, w = [int(i in (16, 17)) for i in range(22)], list(lam.basis_vector(0))  # norms 2 and 2
    payload = {"lattice": ser.lattice_to_obj(lam), "v": v, "w": w}
    code, out = run_cli(["clifford", "gspin"], stdin_text=json.dumps(payload))
    assert code == 0
    pair = cl.gspin_generator(v, w, lam)
    report = cl.conjugation_preserves_lattice(pair, lam)
    assert report.preserves
    assert out == ser.dumps({
        "g": ser.clifford_to_obj(pair.g),
        "inverse_numerator": ser.clifford_to_obj(pair.inverse_numerator),
        "denominator": pair.denominator,
        "preserves_lattice": True,
        "images": [list(u) for u in report.images],
    }) + "\n"


def test_lattice_info_table():
    _, built = run_cli(["lattice", "build", "u"])
    code, out = run_cli(["lattice", "info", "--table"], stdin_text=built)
    assert code == 0
    assert "rank" in out and "signature" in out


def test_embed_vd_command():
    code, out = run_cli(["embed", "vd", "--d", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["vector"][16] == 1 and payload["vector"][17] == -2
    assert payload["complement"]["source"]["rank"] == 21


def test_domain_error_exit_code():
    code, _ = run_cli(["lattice", "build", "l_d", "--d", "0"])
    assert code == 1


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        cli.main(["no-such-command"])
    assert err.value.code == 2


USAGES = {
    "": "[-h] [--raw-ints] {lattice,embed,complement,saturate,roots,walls,mindeg,verify-cert,"
        "disc-kernel,clifford,enumerate,check-disc-complement} ...",
    "lattice": "[-h] {build,info} ...",
    "lattice build": "[-h] [--d D] [--n N] [--file FILE] [{big-l,e8,k3,l_d,rank-one,u}]",
    "lattice info": "[-h] [--file FILE] [--table]",
    "embed": "[-h] {four-squares,ld-in-l,vd} ...",
    "embed four-squares": "[-h] --m M",
    "embed ld-in-l": "[-h] --d D",
    "embed vd": "[-h] --d D [--positive-norm]",
    "complement": "[-h] [--file FILE]",
    "saturate": "[-h] [--file FILE]",
    "roots": "[-h] --norm NORM [--file FILE]",
    "walls": "[-h] --v V [--file FILE]",
    "mindeg": "[-h] [--norm-limit NORM_LIMIT] [--box BOX] [--jobs JOBS] [--file FILE]",
    "verify-cert": "[-h] --v V --degree DEGREE [--file FILE]",
    "disc-kernel": "[-h] [--isometry-file ISOMETRY_FILE]",
    "clifford": "[-h] [--file FILE] {mul,reversal,phi-a,find-a,gspin,project}",
    "enumerate": "[-h] --rank RANK --max-disc MAX_DISC [--even] [--csv]",
    "check-disc-complement": "[-h] [--file FILE]",
}


@pytest.mark.parametrize("path", USAGES)
def test_usage_of_every_parser_path(path, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "200")  # wide enough that no usage line wraps
    with pytest.raises(SystemExit) as err:
        cli.main([*path.split(), "--help"])
    assert err.value.code == 0
    assert capsys.readouterr().out.split("\n\n")[0] == " ".join(["usage: k3lat", *path.split(), USAGES[path]])


@pytest.mark.parametrize("argv", [["walls", "--v", "a,b"], ["verify-cert", "--v", "1,b", "--degree", "4"],
                                  ["walls", "--v=1,,x"]])
def test_malformed_vector_is_a_usage_error(argv, capsys):
    _, built = run_cli(["lattice", "build", "u"])
    old = sys.stdin
    sys.stdin = io.StringIO(built)
    try:
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
    finally:
        sys.stdin = old
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == ""
    assert "argument --v: expected comma-separated integers" in captured.err.splitlines()[-1]


def fresh_process_env():
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, COLUMNS="80",
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_cached_parser_gives_same_bytes_as_fresh_processes(monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setenv("COLUMNS", "80")
    _, built = run_cli(["lattice", "build", "u"])
    calls = [(["walls", "--v", "1,1"], built), (["no-such-command"], ""),
             (["mindeg", "--box", "3"], built), (["roots", "--norm", "-1"], built),
             (["verify-cert", "--v", "1,2", "--degree", "4"], built)]
    codes = []
    for argv, stdin_text in calls:
        old = sys.stdin, sys.stdout, sys.stderr
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin_text), io.StringIO(), io.StringIO()
        try:
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            got = (code, sys.stdout.getvalue(), sys.stderr.getvalue())
        finally:
            sys.stdin, sys.stdout, sys.stderr = old
        proc = subprocess.run([sys.executable, "-m", "k3lattices.cli", *argv], input=stdin_text,
                              capture_output=True, text=True, env=fresh_process_env(), timeout=60)
        assert got == (proc.returncode, proc.stdout, proc.stderr)
        codes.append(code)
    assert codes == [0, 2, 0, 1, 0]


def test_deterministic_output_bytes():
    outs = {run_cli(["lattice", "build", "k3"])[1] for _ in range(3)}
    assert len(outs) == 1


def test_console_script_installed():
    proc = subprocess.run(["k3lat", "embed", "four-squares", "--m", "99"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["parts"] == [9, 4, 1, 1]


def readme_examples():
    """{pipeline: output} for each README `k3lat` line followed by a documented `# {...}` output line."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    return {cmd: out[len("# "):] for cmd, out in zip(lines, lines[1:])
            if cmd.startswith("k3lat ") and out.startswith("# {")}


README_EXAMPLES = readme_examples()


def test_readme_documents_example_outputs():
    assert len(README_EXAMPLES) >= 3


@pytest.mark.parametrize("pipeline", README_EXAMPLES)
def test_readme_example_prints_its_documented_bytes(pipeline):
    data = b""
    for stage in pipeline.split(" | "):
        prog, *argv = shlex.split(stage)
        assert prog == "k3lat"
        proc = subprocess.run([sys.executable, "-m", "k3lattices.cli", *argv], input=data,
                              capture_output=True, env=fresh_process_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        data = proc.stdout
    assert data == (README_EXAMPLES[pipeline] + "\n").encode()


def test_big_int_string_rendering(tmp_path):
    big = (1 << 60) + 1
    path = tmp_path / "lat.json"
    path.write_text(json.dumps({"rank": 1, "gram": [[big]]}))
    code, out = run_cli(["lattice", "build", "--file", str(path)])
    assert code == 0
    assert json.loads(out)["gram"][0][0] == str(big)
    code, out = run_cli(["--raw-ints", "lattice", "build", "--file", str(path)])
    assert json.loads(out)["gram"][0][0] == big


SAFE = 1 << 53
edge_ints = st.one_of(
    st.sampled_from([SAFE, -SAFE, SAFE + 1, -SAFE - 1, 0, -1]),
    st.integers(10 ** 15, SAFE), st.integers(-SAFE, -10 ** 15),  # 16 digits, never quoted
    st.integers(10 ** 19, 10 ** 40), st.integers(-10 ** 40, -10 ** 19),
    st.integers(-1000, 1000))
# digit runs, quotes, backslashes and non-ASCII text, which json.dumps escapes
tricky_text = st.lists(st.sampled_from(
    ['"', "\\", '\\"', "é", "中", "12345678901234567890", "-9007199254740993", "9007199254740992", "a", " "]),
    max_size=6).map("".join) | st.text(max_size=8)
# no handler emits a float, and labels read from input are strings; dumps still takes floats, these with 16+ digit runs
long_floats = st.sampled_from([0.12345678901234568, 0.19999999999999998, -0.9999999999999999,
                               9007199254740994.0, 1.2345678901234568e+16])
leaves = edge_ints | tricky_text | st.booleans() | st.none() | st.floats() | long_floats
payloads = st.recursive(leaves, lambda kids: st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
                        | st.dictionaries(tricky_text, kids, max_size=4), max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(payloads, st.booleans())
def test_dumps_matches_the_per_int_walk(payload, raw_ints):
    want = json.dumps(encode_ints_oracle(payload, raw_ints), sort_keys=True, separators=(",", ":"))
    assert ser.dumps(payload, raw_ints) == want


@pytest.mark.parametrize("label", [1.5, 7, [1], True])
def test_non_string_label_gives_one_error_line(label, tmp_path, capsys):
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps({"rank": 1, "gram": [[2]], "label": label}))
    assert run_cli(["lattice", "build", "--file", str(path)]) == (1, "")
    kind = type(label).__name__
    assert capsys.readouterr().err == f"error: expected a string or null as a lattice label, got {kind}\n"


@pytest.mark.parametrize("label", ["E8 \"x\" 12345678901234567890", None])
def test_string_and_null_labels_round_trip(label, tmp_path):
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps({"rank": 1, "gram": [[2]], "label": label}))
    code, out = run_cli(["lattice", "build", "--file", str(path)])
    assert code == 0 and json.loads(out).get("label") == label
    path.write_text(out)
    assert run_cli(["lattice", "build", "--file", str(path)]) == (0, out)


def test_clifford_mul_quotes_big_gram_ints_but_not_coefficient_strings():
    host = {"rank": 2, "gram": [[2, 1 << 60], [1 << 60, -2]], "label": "12345678901234567890"}
    payload = json.dumps({"x": {**host, "terms": [{"mask": 1, "coeff": SAFE + 1}]},
                          "y": {"terms": [{"mask": 2, "coeff": "3"}]}})
    terms = '"rank":2,"terms":[{"coeff":"27021597764222979","mask":3}]}\n'
    assert run_cli(["clifford", "mul"], payload) == (
        0, '{"gram":[[2,"1152921504606846976"],["1152921504606846976",-2]],' + terms)
    assert run_cli(["--raw-ints", "clifford", "mul"], payload) == (
        0, '{"gram":[[2,1152921504606846976],[1152921504606846976,-2]],' + terms)


def test_out_of_memory_gives_one_error_line(monkeypatch, capsys):
    def exhausted(lattice, norm):
        raise MemoryError

    monkeypatch.setattr(roots, "short_vectors", exhausted)
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"rank":1,"gram":[[2]]}'))
    assert cli.main(["roots", "--norm", "2"]) == 1
    assert capsys.readouterr() == ("", "error: out of memory\n")


def test_lattice_info_on_a_dense_six_by_six_gram(tmp_path):
    gram = [[-9, -3, -4, 9, 5, -4], [-3, -2, -4, -8, 6, -2], [-4, -4, -4, -8, -5, -6],
            [9, -8, -8, 1, -4, 6], [5, 6, -5, -4, -3, 8], [-4, -2, -6, 6, 8, -8]]
    path = tmp_path / "lat.json"
    path.write_text(json.dumps({"rank": 6, "gram": gram}))
    code, out = run_cli(["lattice", "info", "--file", str(path)])
    assert code == 0
    assert out == '{"disc":1698912,"disc_group":[3,566304],"rank":6,"signature":[2,4,0]}\n'


def test_complement_of_a_dense_four_by_six_embedding():
    # the kernel of these pairings has a short basis; an unreduced Smith transform can pass the int-to-str limit
    target = Lattice(6, IntMatrix([[1, -2, -2, 3, -1, 1], [-2, 4, 0, 2, -2, -4], [-2, 0, -2, 0, 3, 3],
                                   [3, 2, 0, 4, -3, -4], [-1, -2, 3, -3, -1, 4], [1, -4, 3, -4, 4, 2]]))
    emb = sublattice_embedding(target, [(-9, 0, 0, -3, 2, 3), (0, -9, -2, 9, -6, 1),
                                        (3, 3, -2, 9, 3, 3), (4, 6, -3, 1, -2, 1)])
    code, out = run_cli(["complement"], stdin_text=ser.dumps(ser.embedding_to_obj(emb)))
    assert code == 0
    comp = ser.embedding_from_obj(json.loads(out))
    assert comp.source.rank == 2
    assert emb.matrix.transpose() @ target.gram @ comp.matrix == IntMatrix.zero(4, 2)


def test_closed_stdout_exits_1_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "k3lattices.cli", "lattice", "build", "k3"],
                              stdout=write_end, stderr=subprocess.PIPE, text=True,
                              env=fresh_process_env(), timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


@pytest.mark.parametrize("argv, stdin_text", [
    (["lattice", "info"], '{"rank":2,"gram":5}'),
    (["lattice", "info"], "[1,2]"),
    (["lattice", "info"], '{"rank":2}'),
    (["lattice", "info", "--file", "/nonexistent/lattice.json"], ""),
    (["complement"], '{"source":[1]}'),
    (["check-disc-complement"], "[1]"),
    (["clifford", "project"], '{"lattice":{"rank":1,"gram":[[1]]},"endo":5}'),
    pytest.param(["lattice", "info"], "[" * 5000 + "]" * 5000, id="deeply-nested-json"),
    pytest.param(["clifford", "mul"],
                 '{"x":{"rank":2,"gram":[[0,1],[1,0]],"terms":[{"mask":1,"coeff":"1"}]},'
                 '"y":{"rank":2,"gram":[[1,0],[0,1]],"terms":[{"mask":1,"coeff":"1"}]}}',
                 id="mul-y-over-other-gram"),
    pytest.param(["clifford", "mul"],
                 '{"x":{"rank":2,"gram":[[0,1],[1,0]],"terms":[{"mask":1,"coeff":"1"}]},'
                 '"y":{"rank":3,"terms":[{"mask":1,"coeff":"1"}]}}',
                 id="mul-y-over-other-rank"),
    pytest.param(["clifford", "phi-a"],
                 '{"x":{"rank":1,"gram":[[1]],"terms":[{"mask":1,"coeff":"1"}]},'
                 '"y":{"terms":[{"mask":1,"coeff":"1"}]},'
                 '"a":{"rank":1,"gram":[[2]],"terms":[{"mask":1,"coeff":"1"}]}}',
                 id="phi-a-a-over-other-gram"),
])
def test_malformed_input_gives_one_error_line(argv, stdin_text):
    proc = subprocess.run([sys.executable, "-m", "k3lattices.cli", *argv], input=stdin_text,
                          capture_output=True, text=True, env=fresh_process_env(), timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# malformed payloads, fuzzed

small_ints = st.integers(-5, 5)
json_junk = st.recursive(
    st.none() | st.booleans() | small_ints | st.floats(-5, 5) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8)


@st.composite
def malformed_grams(draw):
    """Symmetric, non-symmetric, ragged or junk matrices of size at most 3."""
    kind = draw(st.sampled_from(["symmetric", "symmetric", "square", "ragged", "junk"]))
    if kind == "junk":
        return draw(json_junk)
    if kind == "ragged":
        return draw(st.lists(st.lists(small_ints, max_size=3), max_size=3))
    n = draw(st.integers(0, 3))
    m = [[draw(small_ints) for _ in range(n)] for _ in range(n)]
    if kind == "symmetric":
        for i in range(n):
            for j in range(i):
                m[i][j] = m[j][i]
    return m


@st.composite
def malformed_payloads(draw):
    """Stdin text: a lattice object with fields missing, of the wrong type or
    inconsistent, bare JSON junk, or text that is not JSON at all."""
    kind = draw(st.sampled_from(["lattice", "lattice", "lattice", "junk", "text"]))
    if kind == "text":
        return draw(st.text(max_size=12))
    if kind == "junk":
        return json.dumps(draw(json_junk))
    gram = draw(malformed_grams())
    obj = {"gram": gram} if draw(st.integers(0, 3)) else {}
    rank = draw(st.sampled_from(["size", "size", "other", "missing"]))
    if rank == "size" and isinstance(gram, list):
        obj["rank"] = len(gram)
    elif rank == "other":
        obj["rank"] = draw(st.integers(-1, 4) | json_junk)
    if draw(st.booleans()):
        obj["label"] = draw(json_junk)
    return json.dumps(obj)


def _vector_flag(values):
    return "--v=" + ",".join(str(x) for x in values)


fuzzed_commands = st.one_of(
    st.just(["lattice", "info"]),
    st.integers(-1, 4).map(lambda norm: ["roots", "--norm", str(norm)]),
    st.lists(small_ints, max_size=4).map(lambda v: ["walls", _vector_flag(v)]),
    st.tuples(st.lists(small_ints, max_size=4), st.integers(-4, 8)).map(
        lambda vd: ["verify-cert", _vector_flag(vd[0]), "--degree", str(vd[1])]),
)


@settings(max_examples=200, deadline=None)
@given(fuzzed_commands, malformed_payloads())
def test_fuzzed_payloads_exit_cleanly(argv, stdin_text):
    old = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin_text), io.StringIO(), io.StringIO()
    try:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        err = sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = old
    assert code in (0, 1, 2)
    assert "Traceback" not in err


@pytest.mark.parametrize("gram", [[[0, 1], [1, 0]], [[2, 0], [0, -2]]])
@pytest.mark.parametrize("vector", ["-1,-2", "-2,-1", "-1,0", "1,-2"])
@pytest.mark.parametrize("command", [["walls"], ["verify-cert", "--degree", "4"]])
def test_negative_vector_after_space_matches_equals_form(gram, vector, command):
    payload = json.dumps({"rank": 2, "gram": gram})
    spaced = run_cli(command + ["--v", vector], stdin_text=payload)
    joined = run_cli(command + [f"--v={vector}"], stdin_text=payload)
    assert spaced == joined


def test_walls_accepts_negative_vector_after_space():
    _, built = run_cli(["lattice", "build", "u"])
    assert run_cli(["walls", "--v", "-1,-2"], stdin_text=built) == (0, '{"v":[-1,-2],"walls":[]}\n')
