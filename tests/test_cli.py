import json
from dataclasses import asdict

import pytest

from hopflift import arithcheck as ac
from hopflift.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_file(tmp_path, capsys, name, p, fname, n=1):
    path = tmp_path / fname
    code, _, _ = run(capsys, "gen", name, "--p", str(p), "--n", str(n), "-o", str(path))
    assert code == 0
    return path


def test_gen_validate_pipeline(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "S3", 7, "s3.json")
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0
    assert "antipode_left" in out and "FAIL" not in out


def test_validate_detects_broken_presentation(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "C2", 5, "c2.json")
    obj = json.loads(path.read_text())
    obj["S"][1][1] = [0]
    obj["S"][0][1] = [1]  # S(g) = 1 breaks the antipode axioms
    path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert "FAIL" in out


def test_analyze_exit_codes(tmp_path, capsys):
    good = gen_file(tmp_path, capsys, "S3", 7, "s3.json")
    code, _, _ = run(capsys, "analyze", str(good))
    assert code == 0
    bad = gen_file(tmp_path, capsys, "C3", 3, "c3.json")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 1 and "not semisimple" in err


def test_threshold(capsys):
    code, out, _ = run(capsys, "threshold", "--dim", "6")
    assert code == 0 and out.strip() == "6"
    code, out, _ = run(capsys, "threshold", "--dim", "8", "--json")
    assert code == 0 and json.loads(out) == {"dim": 8, "phi": 4, "threshold": 64}


def test_lemma41_exit_codes(capsys):
    code, out, _ = run(capsys, "lemma41", "--poly", "2,1,1", "--r", "3", "--p", "7", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["conclusion"] == "nonvanishing-guaranteed" and payload["bound"] == 4
    # the payload is the report's fields, in their order
    assert list(payload.items()) == list(asdict(ac.lemma41([2, 1, 1], 3, 7)).items())
    code, out, _ = run(capsys, "lemma41", "--poly", "2,1,1", "--r", "3", "--p", "3", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["conclusion"] == "inapplicable"
    assert list(payload.items()) == list(asdict(ac.lemma41([2, 1, 1], 3, 3)).items())


@pytest.mark.parametrize(
    "r, p, code, message",
    [
        ("0", "7", 2, "need r > 2"),
        ("-2", "7", 2, "need r > 2"),
        ("3", "0", 1, "NotPrime: 0 is not prime"),
        ("3", "4", 1, "NotPrime: 4 is not prime"),
        ("3", "-7", 1, "NotPrime: -7 is not prime"),
    ],
)
def test_lemma41_refuses_bad_r_or_p(capsys, r, p, code, message):
    # --r 1 exits 2 by the same ValueError; a p that is not prime as gen --p 4 does
    got, out, err = run(capsys, "lemma41", "--poly", "2,1,1", "--r", r, "--p", p)
    assert got == code and out == "" and message in err


@pytest.mark.parametrize("criteria", ["99", "0,-1", "2,12"])
def test_accept_refuses_unknown_criteria(capsys, criteria):
    code, out, err = run(capsys, "accept", "--criteria", criteria)
    assert code == 2 and out == "" and "numbered 1-11" in err


def test_cohomology_command(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "C2", 5, "c2.json")
    code, out, _ = run(capsys, "cohomology", str(path), "--degree", "0,1,2", "--invariants", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dims"] == {"0": 0, "1": 0, "2": 0}
    assert payload["invariants_dims"] == {"0": 0, "1": 0, "2": 0}


def test_lift_reconcile_flow(tmp_path, capsys):
    base = gen_file(tmp_path, capsys, "C2", 5, "c2.json")
    la = tmp_path / "a.json"
    lb = tmp_path / "b.json"
    code, _, err = run(capsys, "lift", str(base), "--precision", "3", "--strategy", "canonical", "-o", str(la))
    assert code == 0
    code, _, err = run(capsys, "lift", str(base), "--precision", "3", "--strategy", "perturbed:7", "-o", str(lb))
    assert code == 0 and "obstruction support" in err
    payload = json.loads(lb.read_text())
    assert payload["precision"] == 3 and payload["current"]["ring"]["n"] == 3
    code, out, _ = run(capsys, "reconcile", str(la), str(lb), "-o", str(tmp_path / "eta.json"))
    assert code == 0
    eta = json.loads((tmp_path / "eta.json").read_text())
    assert eta["eta"][0][0][0] % 5 == 1 and eta["eta"][0][1][0] % 5 == 0


def test_reconcile_refuses_a_base_that_is_not_semisimple(tmp_path, capsys):
    from hopflift import hopfcore as hc
    from hopflift import lifting as lf
    from hopflift import serialize as ser
    from hopflift.coeffring import make_ring

    state = lf.LiftState(hc.generate("C3", make_ring(3)), 2, hc.generate("C3", make_ring(3, 2)), [])
    path = tmp_path / "c3lift.json"
    path.write_text(ser.dumps(ser.liftstate_to_json(state)))
    code, out, err = run(capsys, "reconcile", str(path), str(path))
    assert code == 1 and out == ""
    assert err.startswith("NotSemisimpleOrCosemisimple: A is not semisimple") and "Traceback" not in err


def test_lift_map_flow(tmp_path, capsys):
    import numpy as np

    from hopflift import hopfcore as hc
    from hopflift import serialize as ser
    from hopflift import tensorcalc as tc
    from hopflift.coeffring import make_ring

    F5 = make_ring(5)
    C2, C4 = hc.generate("C2", F5), hc.generate("C4", F5)
    inc = np.zeros((4, 2, 1), dtype=np.int64)
    inc[0, 0, 0] = 1
    inc[2, 1, 0] = 1
    phi = hc.make_morphism(C2, C4, tc.MultiMap(F5, 1, 1, 2, 4, inc))
    (tmp_path / "phi.json").write_text(ser.dumps(ser.morphism_to_json(phi)))
    c2 = gen_file(tmp_path, capsys, "C2", 5, "c2.json")
    c4 = gen_file(tmp_path, capsys, "C4", 5, "c4.json")
    run(capsys, "lift", str(c2), "--precision", "2", "-o", str(tmp_path / "la.json"))
    run(capsys, "lift", str(c4), "--precision", "2", "-o", str(tmp_path / "lb.json"))
    code, _, _ = run(
        capsys,
        "lift-map",
        "--map",
        str(tmp_path / "phi.json"),
        "--lift-a",
        str(tmp_path / "la.json"),
        "--lift-b",
        str(tmp_path / "lb.json"),
        "-o",
        str(tmp_path / "out.json"),
    )
    assert code == 0
    out = json.loads((tmp_path / "out.json").read_text())
    assert out["map"][1][2] == [1]  # g still maps to h^2


def test_lift_rmatrix_flow(tmp_path, capsys):
    import numpy as np

    from hopflift import hopfcore as hc
    from hopflift import serialize as ser
    from hopflift import tensorcalc as tc
    from hopflift.coeffring import make_ring

    F5 = make_ring(5)
    C2 = hc.generate("C2", F5)
    R1 = tc.MultiMap(F5, 0, 2, 2, 2, np.array([3, 3, 3, 2], dtype=np.int64).reshape(4, 1)[:, :, None])
    (tmp_path / "r1.json").write_text(ser.dumps(ser.rmatrix_to_json(C2, R1)))
    c2 = gen_file(tmp_path, capsys, "C2", 5, "c2.json")
    run(capsys, "lift", str(c2), "--precision", "2", "-o", str(tmp_path / "st.json"))
    code, out, _ = run(capsys, "lift-rmatrix", "--r", str(tmp_path / "r1.json"), "--lift", str(tmp_path / "st.json"))
    assert code == 0
    payload = json.loads(out)
    assert [v[0] for v in payload["R"]["coeffs"]] == [13, 13, 13, 12]


def test_lift_rmatrix_refuses_an_r_of_another_dimension(tmp_path, capsys):
    # an R-matrix of C2 against a lift of C4, refused before verify_qt reshapes it
    import numpy as np

    from hopflift import hopfcore as hc
    from hopflift import serialize as ser
    from hopflift import tensorcalc as tc
    from hopflift.coeffring import make_ring

    F5 = make_ring(5)
    C2 = hc.generate("C2", F5)
    R1 = tc.MultiMap(F5, 0, 2, 2, 2, np.array([3, 3, 3, 2], dtype=np.int64).reshape(4, 1)[:, :, None])
    (tmp_path / "r.json").write_text(ser.dumps(ser.rmatrix_to_json(C2, R1)))
    c4 = gen_file(tmp_path, capsys, "C4", 5, "c4.json")
    run(capsys, "lift", str(c4), "--precision", "2", "-o", str(tmp_path / "st.json"))
    code, out, err = run(capsys, "lift-rmatrix", "--r", str(tmp_path / "r.json"), "--lift", str(tmp_path / "st.json"))
    assert code == 1 and out == ""
    assert "DifferentBaseOrPrecision" in err and "dimension 2" in err and "dimension 4" in err


def test_double_and_dual_commands(tmp_path, capsys):
    c2 = gen_file(tmp_path, capsys, "C2", 5, "c2.json")
    code, out, _ = run(capsys, "double", str(c2))
    assert code == 0
    payload = json.loads(out)
    assert payload["double"]["dim"] == 4
    code, out, _ = run(capsys, "dual", str(c2))
    assert code == 0 and json.loads(out)["dim"] == 2


def test_gen_over_galois_ring(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "C2", 5, "c2z25.json", n=2)
    code, _, _ = run(capsys, "validate", str(path))
    assert code == 0
    assert json.loads(path.read_text())["ring"]["n"] == 2


def test_schema_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"ring":{"p":5,"n":1,"m":1},"dim":2}')
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2 and "schema error" in err


def test_unknown_group_exit_code(capsys):
    code, _, err = run(capsys, "gen", "C9", "--p", "5")
    assert code == 2


def test_cocycle_check_flow(tmp_path, capsys):
    from hopflift import cohomology as coh
    from hopflift import hopfcore as hc
    from hopflift import serialize as ser
    from hopflift.coeffring import make_ring

    C2 = hc.generate("C2", make_ring(5))
    ctx = coh.make_context(C2)
    z = coh.d_total(coh.random_cochain(ctx, 1, 4))
    good = tmp_path / "z.json"
    good.write_text(ser.dumps(ser.cochain_to_json(z)))
    c2 = gen_file(tmp_path, capsys, "C2", 5, "c2.json")
    code, out, _ = run(capsys, "cohomology", str(c2), "--cocycle", str(good))
    assert code == 0 and "True" in out
    bad = tmp_path / "bad.json"
    nz = coh.random_cochain(ctx, 2, 5)
    bad.write_text(ser.dumps(ser.cochain_to_json(nz)))
    code, out, _ = run(capsys, "cohomology", str(c2), "--cocycle", str(bad))
    assert code == 1


def test_oversized_modulus_exit_code(tmp_path, capsys):
    base = gen_file(tmp_path, capsys, "C2", 3, "c2.json")
    code, out, err = run(capsys, "lift", str(base), "--precision", "40", "-o", str(tmp_path / "lift.json"))
    assert code == 2 and "UnsupportedModulus" in err and out == ""
    assert not (tmp_path / "lift.json").exists()
    code, _, err = run(capsys, "gen", "C2", "--p", "3", "--n", "40")
    assert code == 2 and "UnsupportedModulus" in err


def _broken_presentation(tmp_path, capsys, key, index, value):
    path = gen_file(tmp_path, capsys, "C2", 5, "broken.json")
    obj = json.loads(path.read_text())
    table = obj[key]
    for i in index[:-1]:
        table = table[i]
    table[index[-1]] = value
    path.write_text(json.dumps(obj))
    return path


@pytest.mark.parametrize(
    "key,index,value,failing",
    [
        ("S", (1, 1), [0], "antipode_left, antipode_right"),
        ("m", (1, 1, 0), [2], "delta_multiplicative, counit_multiplicative, antipode_left, antipode_right"),
    ],
    ids=["S(g) = 0", "g g = 2"],
)
@pytest.mark.parametrize("as_json", [False, True])
def test_analyze_refuses_non_hopf_input(tmp_path, capsys, key, index, value, failing, as_json):
    path = _broken_presentation(tmp_path, capsys, key, index, value)
    code, out, err = run(capsys, "analyze", str(path), *(["--json"] if as_json else []))
    assert code == 1 and out == ""
    assert err.strip() == "axioms violated: " + failing


@pytest.mark.parametrize(
    "key,index,value,failing",
    [
        ("S", (1, 1), [0], "antipode_left, antipode_right"),
        ("m", (1, 1), [[0], [2]], "delta_multiplicative, counit_multiplicative, antipode_left, antipode_right"),
    ],
    ids=["S(g) = 0", "g g = 2 g"],
)
@pytest.mark.parametrize("extra", [("--degree", "0,1,2"), ("--degree", "1", "--json")])
def test_cohomology_refuses_non_hopf_input(tmp_path, capsys, key, index, value, failing, extra):
    # g g = 2 g has no nonzero left integral; the CLI refuses before any Maschke test
    path = _broken_presentation(tmp_path, capsys, key, index, value)
    code, out, err = run(capsys, "cohomology", str(path), *extra)
    assert code == 1 and out == "" and "Traceback" not in err
    assert err.strip() == "axioms violated: " + failing


@pytest.mark.parametrize(
    "key,index,value,failing",
    [
        ("S", (1, 1), [0], "antipode_left, antipode_right"),
        ("m", (1, 1, 0), [2], "delta_multiplicative, counit_multiplicative, antipode_left, antipode_right"),
    ],
    ids=["S(g) = 0", "g g = 2"],
)
def test_lift_names_failing_axioms(tmp_path, capsys, key, index, value, failing):
    path = _broken_presentation(tmp_path, capsys, key, index, value)
    out_path = tmp_path / "lift.json"
    code, out, err = run(capsys, "lift", str(path), "--precision", "3", "-o", str(out_path))
    assert code == 1 and out == "" and not out_path.exists()
    assert err.strip() == "AxiomsViolated: base fails the Hopf axioms " + failing


def _modules_after(code):
    """The hopflift modules loaded after running code in a fresh interpreter."""
    import os
    import subprocess
    import sys

    import hopflift

    src = os.path.dirname(os.path.dirname(os.path.abspath(hopflift.__file__)))
    script = code + "\nimport sys\nprint(' '.join(sorted(m for m in sys.modules if m.startswith('hopflift'))))"
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    return set(proc.stdout.splitlines()[-1].split())


def test_import_hygiene(tmp_path):
    loaded = _modules_after("import hopflift.serialize")
    assert "hopflift.serialize" in loaded
    assert not loaded & {"hopflift.lifting", "hopflift.cohomology"}
    loaded = _modules_after("from hopflift import cli\ncli.main(['threshold', '--dim', '8'])")
    assert "hopflift.arithcheck" in loaded and "hopflift.hopfcore" not in loaded
    out = tmp_path / "c2.json"
    loaded = _modules_after(f"from hopflift import cli\ncli.main(['gen', 'C2', '--p', '5', '-o', {str(out)!r}])")
    assert out.exists() and "hopflift.hopfcore" in loaded and "hopflift.lifting" not in loaded
