import contextlib
import filecmp
import io
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from jsonschema import validate

from sustkit import riemann_stieltjes
from sustkit.cli import build_parser, main
from sustkit.expressions import ExpressionError, compile_expression
from sustkit.diffusion import AffineRule, run_scenario
from sustkit.pavement import MIX_CSV_COLUMNS, figure_scenarios

FIT_REPORT_SCHEMA = {
    "type": "object",
    "required": ["alpha", "beta", "residual_norm", "n_obs"],
    "properties": {
        "alpha": {"type": "number"},
        "beta": {"type": "number"},
        "residual_norm": {"type": "number", "minimum": 0},
        "n_obs": {"type": "integer", "minimum": 2},
    },
    "additionalProperties": False,
}

VERIFY_SCHEMA = {
    "type": "array",
    "items": {
        "type": "object",
        "required": ["variant", "k", "model", "max_residual_coeff", "ok", "note"],
        "properties": {
            "variant": {"type": "string"},
            "k": {"type": "integer"},
            "model": {"enum": ["diffusion", "interaction"]},
            "max_residual_coeff": {"type": "number", "minimum": 0},
            "ok": {"type": "boolean"},
            "note": {"type": "string"},
        },
    },
}

BOUND_SCHEMA = {
    "type": "object",
    "required": ["lhs", "rhs", "holds", "sup_f", "integral", "sup_f_zero",
                 "omega_nondecreasing"],
}

MANIFEST_SCHEMA = {
    "type": "object",
    "required": ["figure", "s", "t_end", "panels", "snapshot_times_requested"],
    "properties": {
        "panels": {
            "type": "array",
            "minItems": 4,
            "maxItems": 4,
            "items": {
                "type": "object",
                "required": ["label", "domain", "resolution", "dt", "files"],
            },
        }
    },
}


# -- expression grammar -----------------------------------------------------------


def test_expression_polynomial_caret_power():
    f = compile_expression("x^2 + 1")
    assert f(np.asarray(3.0)) == 10.0


def test_expression_functions_and_constants():
    f = compile_expression("exp(x) * sin(pi * x) + e")
    x = 0.5
    assert float(f(np.asarray(x))) == pytest.approx(
        math.exp(x) * math.sin(math.pi * x) + math.e
    )


def test_expression_step():
    f = compile_expression("step(x - 0.5)")
    assert list(f(np.array([0.0, 0.5, 1.0]))) == [0.0, 1.0, 1.0]


def test_expression_vectorised():
    f = compile_expression("2*x")
    assert np.array_equal(f(np.array([1.0, 2.0])), [2.0, 4.0])


@pytest.mark.parametrize("text", [
    "x ** 2.0", "x ** 3.0", "x ** 0.5", "x^2", "x**-1.5", "2^0.5 * x", "10**x", "2*pi*x + e",
    "1/3 - x/7", "-x + 3", "sin(2*pi*x)", "exp(-x^2/2) / sqrt(2*pi)", "abs(x - 0.5)^3",
    "log(1 + x) * tan(x/2)", "step(x - 1/3) * 0.1**2", "(1 + x)**(1/3) - pi**e",
])
def test_expression_constants_give_the_values_of_float_arithmetic(text):
    # compiled constants are numpy scalars; Python floats in the same places
    # must give the same bits
    xs = np.linspace(-0.0, 2.5, 257)
    env = {"x": xs, "pi": math.pi, "e": math.e, "exp": np.exp, "sin": np.sin, "cos": np.cos,
           "tan": np.tan, "sqrt": np.sqrt, "log": np.log, "abs": np.abs,
           "step": lambda v: np.where(v >= 0.0, 1.0, 0.0)}
    with np.errstate(all="ignore"):
        want = eval(text.replace("^", "**"), {"__builtins__": {}}, env)
        got = compile_expression(text)(xs)
    assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("text, value", [
    ("1/0", math.inf), ("2.0**10000", math.inf), ("0**-1", math.inf), ("(0-1)**0.5", math.nan),
    pytest.param("1" + "0" * 400, math.inf, id="int-beyond-float-range"), ("x + 1/0", math.inf),
])
def test_expression_constants_overflow_to_non_finite_values(text, value):
    with np.errstate(all="ignore"):
        got = float(compile_expression(text)(np.asarray(0.5)))
    assert got == value or (math.isnan(got) and math.isnan(value))


@pytest.mark.parametrize(
    "bad",
    ["", "import os", "x + y", "foo(x)", "x @ x", "(1).real", "lambda: 1", "x if x else x",
     pytest.param("+".join(["x"] * 201), id="sum-of-201-terms"),
     pytest.param("-" * 200 + "x", id="x-under-200-minus-signs"),
     pytest.param("exp(" * 200 + "x" + ")" * 200, id="200-nested-calls")],
)
def test_expression_rejects_out_of_grammar(bad):
    with pytest.raises(ExpressionError):
        compile_expression(bad)


# -- rs verbs ----------------------------------------------------------------------


def test_cli_rs_integrate(capsys):
    rc = main(["rs", "integrate", "--f", "x", "--omega", "x^2",
               "--lo", "0", "--hi", "1", "--eta", "1e-6"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "0.666667"


@pytest.mark.parametrize("f, omega, value", [
    ("x", "+".join(["x"] * 200), "100"),
    ("-" * 199 + "x", "x", "-0.5"),
    ("abs(" * 199 + "x" + ")" * 199, "x", "0.5"),
], ids=["sum-of-200-terms", "x-under-199-minus-signs", "199-nested-calls"])
def test_cli_rs_integrate_at_the_expression_depth_bound(capsys, f, omega, value):
    # compiling and evaluating recurse once per level, inside the R-S walk
    assert main(["rs", "integrate", f"--f={f}", f"--omega={omega}", "--lo", "0", "--hi", "1"]) == 0
    assert capsys.readouterr().out.strip() == value


def test_cli_rs_sum(capsys):
    rc = main(["rs", "sum", "--f", "x", "--omega", "x",
               "--lo", "0", "--hi", "1", "--n", "4"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "0.5"


def test_cli_rs_variation_sup_and_partition(capsys):
    rc = main(["rs", "variation", "--omega", "sin(x)", "--lo", "0",
               "--hi", str(2 * math.pi)])
    assert rc == 0
    assert float(capsys.readouterr().out) == pytest.approx(4.0, abs=1e-3)
    rc = main(["rs", "variation", "--omega", "x^2", "--lo", "0", "--hi", "1",
               "--n", "10"])
    assert rc == 0
    assert float(capsys.readouterr().out) == pytest.approx(1.0)


def test_cli_rs_bound_json(capsys):
    rc = main(["rs", "bound", "--f", "x", "--omega", "x", "--lo", "0",
               "--hi", "1", "--format", "json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    validate(report, BOUND_SCHEMA)
    assert report["holds"] is True
    assert report["lhs"] == pytest.approx(1.0)
    assert report["rhs"] == pytest.approx(0.5, abs=1e-6)


@pytest.mark.parametrize("eta", ["1e-8", "1e-10", "1e-12"])
def test_cli_rs_bound_equality_pair_holds_at_small_eta(eta, capsys):
    # the bound holds with equality (5/9 on both sides); the variation side
    # is refined to --eta like the integral
    rc = main(["rs", "bound", "--f", "1 - 2*step(x - 1/3)", "--omega", "-(x - 1/3)^2",
               "--lo", "0", "--hi", "1", "--eta", eta])
    assert capsys.readouterr().out == "lhs=0.555556 rhs=0.555556 holds=True\n"
    assert rc == 0


DATA = Path(__file__).parent / "data"


def _rs_partition_cases():
    """argv of ``rs sum`` for each tag rule and precision and of ``rs variation --n``
    for each precision, on expression weights and on a rising-and-falling table;
    TABLE stands for the table's path."""
    weights = [("exp(x)", "x^3 + 0.7", [("0", "1"), ("-1", "2")]),
               ("sin(2*pi*x)", "step(x-0.5)", [("0", "1"), ("0.1", "0.7")]),
               ("x^2", "table:TABLE", [("0", "1")])]
    for f, omega, spans in weights:
        for (lo, hi), n, precision in itertools.product(spans, ("1", "7", "1000", "65536"),
                                                        ("default", "full")):
            common = ["--lo", lo, "--hi", hi, "--n", n, "--precision", precision]
            for rule in riemann_stieltjes.TAG_RULES:
                yield ["rs", "sum", "--f", f, "--omega", omega, "--tag-rule", rule, *common]
            yield ["rs", "variation", "--omega", omega, *common]


def _rs_partition_outputs() -> dict:
    """{argv: {"exit": code, "stdout": text}} of each case, run in this process."""
    outputs, table = {}, str(DATA / "rs_weight_table.csv")
    for argv in _rs_partition_cases():
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main([a.replace("TABLE", table) for a in argv])
        outputs[" ".join(argv)] = {"exit": code, "stdout": out.getvalue()}
    return outputs


def test_cli_rs_partition_outputs_are_the_recorded_bytes():
    # recorded before the partitions held their points as arrays
    recorded = json.loads((DATA / "rs_partition_outputs.json").read_text())
    assert recorded["rs sum --f x^2 --omega table:TABLE --tag-rule left --lo 0 --hi 1 "
                    "--n 7 --precision full"] == {"exit": 0, "stdout": "0.08959727815080555\n"}
    assert _rs_partition_outputs() == recorded


CORPUS = DATA / "cli_corpus"
_SNAPSHOTS = ["--snapshots", "0,0.05,0.1"]
_PRECISIONS = ("default", "full")
_RS_PAIR = ["--f", "sin(2*pi*x)", "--omega", "exp(x) + x^2", "--lo", "0", "--hi", "1"]
_INDEX_INPUTS = ["--t", "0.7", "--alpha", "2.5", "--beta", "0.5"]
# each case runs in a working directory that holds the input files of
# cli_corpus/specs and writes its files under out/, so no path in stdout or a
# manifest is absolute
CORPUS_CASES = {
    "fig4_11": ["figures", "--which", "fig4", "--resolution", "11", "--out", "out"],
    "fig5_21_normalized": ["figures", "--which", "fig5", "--resolution", "21", "--t-end", "0.1",
                           *_SNAPSHOTS, "--normalized", "--out", "out"],
    **{f"solve_k{k}_{fmt}": ["solve", "--spec", f"k{k}.json", *_SNAPSHOTS, "--format", fmt,
                             "--out", "out"] for k in (1, 2, 3) for fmt in ("csv", "json")},
    **{f"rs_integrate_{p}": ["rs", "integrate", *_RS_PAIR, "--eta", "1e-8", "--precision", p]
       for p in _PRECISIONS},
    **{f"rs_bound_text_{p}": ["rs", "bound", *_RS_PAIR, "--precision", p] for p in _PRECISIONS},
    "rs_bound_json": ["rs", "bound", *_RS_PAIR, "--format", "json"],
    **{f"index_eval_{p}": ["index", "eval", "--family", "C2w_ab", "--psi", "0.2,0.5,0.9",
                           "--weights", "1,2,0.5", *_INDEX_INPUTS, "--precision", p]
       for p in _PRECISIONS},
    **{f"index_seven_{p}": ["index", "seven", "--psi", "0.1,0.2,0.3,0.4,0.5,0.6,0.7",
                            "--weights", "1,0.5,2,1,1.5,0.25,1", *_INDEX_INPUTS,
                            "--precision", p] for p in _PRECISIONS},
    **{f"index_fit_{fmt}_{p}": ["index", "fit", "--observations", "c2w_k3.csv", "--format", fmt,
                                "--precision", p, "--out", f"out/fit_{fmt}_{p}.json"]
       for fmt in ("text", "json") for p in _PRECISIONS},
    **{f"pavement_table_{fmt}": ["pavement", "table", "--format", fmt] for fmt in ("csv", "json")},
    **{f"pavement_reduction_{p}": ["pavement", "reduction", "--precision", p]
       for p in _PRECISIONS},
    **{f"pavement_reduction_mix_{p}": ["pavement", "reduction", "--mix", "60R:40V+20F",
                                       "--precision", p] for p in _PRECISIONS},
}


def _corpus_run(case: str, workdir: Path) -> dict:
    """Run ``case`` in this process in ``workdir``: its argv, exit code, stdout,
    stderr line count and the names of the files it wrote under out/."""
    for spec in (CORPUS / "specs").iterdir():
        shutil.copy(spec, workdir)
    (workdir / "out").mkdir()  # index fit --out writes into it and does not make it
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(CORPUS_CASES[case])
    finally:
        os.chdir(cwd)
    files = sorted(p.relative_to(workdir / "out").as_posix()
                   for p in (workdir / "out").rglob("*") if p.is_file())
    return {"argv": CORPUS_CASES[case], "exit": code, "stdout": out.getvalue(),
            "stderr_lines": err.getvalue().count("\n"), "files": files}


def _record_cli_corpus() -> None:
    """Re-record cli_corpus/outputs.json and each case's files, a deliberate act
    to be listed in CHANGES.md with its reason; from the repository root:
    ``PYTHONPATH=src:tests python -c "import test_cli; test_cli._record_cli_corpus()"``."""
    cases = {}
    for case in sorted(CORPUS_CASES):
        with tempfile.TemporaryDirectory() as work:
            cases[case] = _corpus_run(case, Path(work))
            shutil.rmtree(CORPUS / case, ignore_errors=True)
            if cases[case]["files"]:
                shutil.copytree(Path(work) / "out", CORPUS / case)
    (CORPUS / "outputs.json").write_text(
        json.dumps({"numpy": np.__version__, "cases": cases}, indent=1, sort_keys=True) + "\n")


def _grid_parts(path: Path):
    """A grid file's text outside its values, and its values."""
    if path.suffix == ".json":
        data = json.loads(path.read_text())
        return {**data, "values": None}, np.array(data["values"], dtype=float).ravel()
    rows = [line.rpartition(",") for line in path.read_text().splitlines()]
    return [head for head, _, _ in rows], np.array([float(v) for _, _, v in rows[1:]])


@pytest.mark.parametrize("case", sorted(CORPUS_CASES))
def test_cli_corpus_outputs_are_the_recorded_bytes(case, tmp_path):
    recorded = json.loads((CORPUS / "outputs.json").read_text())
    assert _corpus_run(case, tmp_path) == recorded["cases"][case]
    for name in recorded["cases"][case]["files"]:
        got, want = tmp_path / "out" / name, CORPUS / case / name
        grid = CORPUS_CASES[case][0] in ("figures", "solve") and not name.endswith("_manifest.json")
        if recorded["numpy"] == np.__version__ or not grid:
            assert got.read_bytes() == want.read_bytes(), name
        else:
            # another numpy build may round the sine transform differently: the
            # text outside the values is the same, the values within 1e-14 of the
            # grid's largest |value|
            (got_text, got_values), (want_text, want_values) = _grid_parts(got), _grid_parts(want)
            assert got_text == want_text, name
            np.testing.assert_allclose(got_values, want_values, rtol=0,
                                       atol=1e-14 * np.abs(want_values).max(initial=0.0))


def test_cli_rs_table_function(tmp_path, capsys):
    table = tmp_path / "omega.csv"
    table.write_text("x,value\n0,0\n1,1\n")
    rc = main(["rs", "integrate", "--f", "1", "--omega", f"table:{table}",
               "--lo", "0", "--hi", "1", "--eta", "1e-6"])
    assert rc == 0
    assert float(capsys.readouterr().out) == pytest.approx(1.0)


def test_cli_weight_table_header_after_blank_lines(tmp_path, capsys):
    # the header is the first row that is not blank, as in the mix and observation tables
    table = tmp_path / "omega.csv"
    table.write_text("\n  \nx,w\n0,0\n1,1\n")
    rc = main(["rs", "integrate", "--f", "x", "--omega", f"table:{table}", "--lo", "0", "--hi", "1"])
    assert (rc, capsys.readouterr().out) == (0, "0.5\n")


def test_cli_rs_non_convergence_exit_code(capsys):
    rc = main(["rs", "integrate", "--f", "step(x-0.5)", "--omega", "step(x-0.5)",
               "--lo", "0", "--hi", "1", "--eta", "1e-9"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_cli_precision_full(capsys):
    rc = main(["rs", "sum", "--f", "x", "--omega", "x", "--lo", "0", "--hi", "1",
               "--n", "4", "--precision", "full"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "0.5"


@pytest.mark.parametrize("f, omega", [("exp(x)", "x^2"), ("cos(x)", "sin(x)")])
def test_cli_full_precision_integral_is_the_same_under_any_blas_thread_count(f, omega):
    # a BLAS dot product sums in an order set by its thread count; the level
    # sums must not go through one
    argv = [sys.executable, "-m", "sustkit.cli", "rs", "integrate", "--f", f, "--omega", omega,
            "--lo", "0", "--hi", "1", "--eta", "1e-10", "--precision", "full"]
    one, two = (subprocess.run(argv, capture_output=True, check=True,
                               env={**os.environ, "OPENBLAS_NUM_THREADS": threads}).stdout
                for threads in ("1", "2"))
    assert one == two


def test_cli_full_precision_fit_is_the_same_under_any_blas_thread_count(tmp_path):
    # 20,000 rows, where lstsq gave last-digit differences between 1 and 2
    # threads; the fit's reductions must not go through BLAS
    rng = np.random.default_rng(7)
    n, k = 20000, 7
    t, psi, w = rng.uniform(0.1, 2.0, n), rng.uniform(0, 1, (n, k)), rng.uniform(0.5, 2.0, (n, k))
    u = math.factorial(k) * w.sum(axis=1) * t + (w * psi**k).sum(axis=1)
    v = w.prod(axis=1) * (t + psi.prod(axis=1))
    h = 1.3 * u + 0.7 * v + rng.normal(0, 1e-3, n)
    path = tmp_path / "obs.csv"
    header = ",".join(["t"] + [f"psi{i}" for i in range(1, k + 1)]
                      + [f"omega{i}" for i in range(1, k + 1)] + ["H_obs"])
    np.savetxt(path, np.column_stack((t, psi, w, h)), fmt="%.17g", delimiter=",",
               header=header, comments="")
    argv = [sys.executable, "-m", "sustkit.cli", "index", "fit", "--observations", str(path),
            "--precision", "full"]
    one, two = (subprocess.run(argv, capture_output=True, check=True,
                               env={**os.environ, "OPENBLAS_NUM_THREADS": threads}).stdout
                for threads in ("1", "2"))
    assert one == two


def test_cli_figure_grids_are_the_same_under_any_blas_thread_count(tmp_path):
    # at 301 points the sine transform by BLAS matrix products wrote 4 grids
    # that differed in the last digits between 1 and 2 threads
    outs = [tmp_path / threads for threads in ("1", "2")]
    for out in outs:
        _fresh_cli(["figures", "--which", "fig5", "--resolution", "301", "--t-end", "0.5",
                    "--out", str(out)], timeout=60, check=True,
                   env={**os.environ, "OPENBLAS_NUM_THREADS": out.name})
    names = sorted(path.name for path in outs[0].iterdir())
    assert len(names) == 9 and names == sorted(path.name for path in outs[1].iterdir())
    for name in names:  # eight grids and the manifest
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_cli_bad_expression_reports_error(capsys):
    rc = main(["rs", "sum", "--f", "nope(x)", "--omega", "x", "--lo", "0",
               "--hi", "1", "--n", "2"])
    assert rc == 1
    assert "unknown function" in capsys.readouterr().err


# -- verify-solutions ----------------------------------------------------------------


def test_cli_verify_solutions_text(capsys):
    rc = main(["verify-solutions", "--k", "2,3", "--draws", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln]
    assert all(ln.startswith("PASS") for ln in lines)
    assert any("T3w" in ln for ln in lines)
    assert any("C_ab(uncorrected)" in ln for ln in lines)


def test_cli_verify_solutions_json_schema(capsys):
    rc = main(["verify-solutions", "--k", "2", "--draws", "2", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    validate(payload, VERIFY_SCHEMA)
    assert all(rec["ok"] for rec in payload)


# -- solve / figures -------------------------------------------------------------------


def test_cli_solve_from_spec(tmp_path, capsys):
    spec = tmp_path / "square.json"
    spec.write_text(
        json.dumps(
            {
                "domain": [[0.0, 1.0], [0.0, 1.0]],
                "resolution": [9, 9],
                "s": 10.0,
                "t_end": 0.2,
            }
        )
    )
    rc = main(["solve", "--spec", str(spec), "--snapshots", "0,0.2",
               "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "square_t0.csv").exists()
    assert (tmp_path / "out" / "square_t0.2.csv").exists()
    manifest = json.loads((tmp_path / "out" / "square_manifest.json").read_text())
    assert len(manifest["files"]) == 2


def test_cli_solve_initial_value_off_the_boundary(tmp_path):
    # an initial value that differs from the boundary's takes the closed form too
    spec = tmp_path / "offset.json"
    spec.write_text(json.dumps({"domain": [[0, 4], [0, 6]], "resolution": [41, 61],
                                "t_end": 0.5, "initial": 1.25}))
    out = tmp_path / "out"
    assert main(["solve", "--spec", str(spec), "--snapshots", "0,0.1,0.5", "--out", str(out)]) == 0
    assert len(json.loads((out / "offset_manifest.json").read_text())["files"]) == 3


def test_cli_solve_times_that_snap_to_one_step_may_share_its_file(tmp_path):
    # dt = 0.00225: every time asked for snaps to step 1, and two of the names are one
    spec = tmp_path / "s.json"
    spec.write_text(json.dumps({"domain": [[0, 1], [0, 1]], "resolution": [11, 11],
                                "t_end": 0.01}))
    run = ["solve", "--spec", str(spec), "--out"]
    assert main(run + [str(tmp_path / "dup"), "--snapshots", "0.0033,0.0033,0.00337499999"]) == 0
    assert main(run + [str(tmp_path / "one"), "--snapshots", "0.00225"]) == 0
    dup = tmp_path / "dup"
    assert sorted(p.name for p in dup.iterdir()) == [
        "s_manifest.json", "s_t0.0033.csv", "s_t0.003375.csv"]
    step = (tmp_path / "one" / "s_t0.00225.csv").read_bytes()
    assert (dup / "s_t0.0033.csv").read_bytes() == step == (dup / "s_t0.003375.csv").read_bytes()
    files = json.loads((dup / "s_manifest.json").read_text())["files"]
    assert [f["file"] for f in files] == ["s_t0.0033.csv", "s_t0.0033.csv", "s_t0.003375.csv"]
    assert {f["time_actual"] for f in files} == {0.0022500000000000003}


def test_cli_solve_dt_override(tmp_path, capsys):
    spec = tmp_path / "sq.json"
    spec.write_text(
        json.dumps(
            {"domain": [[0.0, 1.0], [0.0, 1.0]], "resolution": [9, 9], "t_end": 0.1}
        )
    )
    out = tmp_path / "out"
    rc = main(["solve", "--spec", str(spec), "--dt", "0.001", "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "sq_manifest.json").read_text())
    assert manifest["dt"] == 0.001
    rc = main(["solve", "--spec", str(spec), "--dt", "1.0", "--out", str(out)])
    assert rc == 1  # above the stability bound
    assert "stability" in capsys.readouterr().err


def test_cli_figures_manifest_schema(tmp_path):
    rc = main(["figures", "--which", "fig4", "--resolution", "8",
               "--t-end", "0.2", "--snapshots", "0,0.2", "--out", str(tmp_path)])
    assert rc == 0
    manifest = json.loads((tmp_path / "fig4_manifest.json").read_text())
    validate(manifest, MANIFEST_SCHEMA)


@pytest.mark.parametrize("normalized, grids", [([], 12), (["--normalized"], 15)])
def test_cli_figures_counts_every_grid_it_writes(tmp_path, capsys, normalized, grids):
    # a snapshot that snaps to step 0 has no normalized twin: 3 of the 8 at t > 0 have one
    assert main(["figures", "--which", "fig5", "--resolution", "11", "--t-end", "0.1",
                 "--snapshots", "0,0.05,0.1", *normalized, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == f"wrote {grids} grid(s) and fig5_manifest.json to {tmp_path}\n"
    assert len(list(tmp_path.glob("*.csv"))) == grids


def test_cli_figures_deterministic(tmp_path):
    args = ["figures", "--which", "fig5", "--resolution", "8", "--t-end", "0.2",
            "--snapshots", "0,0.2"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        if name.endswith("manifest.json"):
            continue  # carries no volatile data but compare anyway
        assert filecmp.cmp(a / name, b / name, shallow=False), name
    assert (a / "fig5_manifest.json").read_bytes() == (
        b / "fig5_manifest.json"
    ).read_bytes()


def test_cli_output_dir_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SUSTKIT_OUTPUT_DIR", str(tmp_path / "envout"))
    rc = main(["figures", "--which", "fig4", "--resolution", "8",
               "--t-end", "0.1", "--snapshots", "0.1"])
    assert rc == 0
    assert (tmp_path / "envout" / "fig4_manifest.json").exists()


# -- index ------------------------------------------------------------------------------


def test_cli_index_eval(capsys):
    rc = main(["index", "eval", "--family", "C1w", "--k", "7", "--t", "1",
               "--psi", "0,0,0,0,0,0,0", "--weights", "1,1,1,1,1,1,1"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "8"


def test_cli_index_seven(capsys):
    rc = main(["index", "seven", "--t", "1", "--psi", "0,0,0,0,0,0,0",
               "--alpha", "1", "--beta", "1"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "35281"


def _c2w_observations(path: Path) -> Path:
    """Eight exact C2w_ab observations at k = 3, alpha = 2.5 and beta = 0.5."""
    import random

    from sustkit.index import IndexInputs, index_value

    rng = random.Random(5)
    k = 3
    lines = ["t,psi1,psi2,psi3,omega1,omega2,omega3,H_obs"]
    for _ in range(8):
        t = rng.uniform(0.1, 1.0)
        psi = [rng.uniform(0.0, 1.0) for _ in range(k)]
        w = [rng.uniform(0.5, 1.5) for _ in range(k)]
        h = index_value(
            IndexInputs(k=k, t=t, psi=tuple(psi), weights=tuple(w),
                        alpha=2.5, beta=0.5),
            "C2w_ab",
        )
        lines.append(",".join(repr(v) for v in [t, *psi, *w, h]))
    path.write_text("\n".join(lines) + "\n")
    return path


def test_cli_index_fit(tmp_path, capsys):
    obs = _c2w_observations(tmp_path / "obs.csv")
    report_path = tmp_path / "fit.json"
    rc = main(["index", "fit", "--observations", str(obs), "--format", "json",
               "--out", str(report_path)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    validate(payload, FIT_REPORT_SCHEMA)
    assert payload["alpha"] == pytest.approx(2.5, abs=1e-9)
    assert payload["beta"] == pytest.approx(0.5, abs=1e-9)
    assert json.loads(report_path.read_text()) == payload


def test_cli_index_fit_makes_the_report_directory(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    obs = _c2w_observations(tmp_path / "obs.csv")
    assert not (tmp_path / "out").exists()
    rc = main(["index", "fit", "--observations", str(obs), "--format", "json",
               "--out", "out/fit.json"])
    assert rc == 0
    assert (tmp_path / "out" / "fit.json").read_text() == capsys.readouterr().out


@pytest.mark.parametrize("precision", ["default", "full"])
def test_cli_index_fit_text_names_each_result(tmp_path, capsys, precision):
    obs = _c2w_observations(tmp_path / "obs.csv")
    assert main(["index", "fit", "--observations", str(obs), "--format", "json"]) == 0
    fit = json.loads(capsys.readouterr().out)
    assert main(["index", "fit", "--observations", str(obs), "--precision", precision]) == 0
    fmt = repr if precision == "full" else "{:.6g}".format
    assert capsys.readouterr().out == (
        f"alpha={fmt(fit['alpha'])} beta={fmt(fit['beta'])} "
        f"residual_norm={fmt(fit['residual_norm'])} n_obs=8\n")


@pytest.mark.parametrize("blank", ["   ", "\t"])
def test_cli_index_fit_skips_whitespace_lines(tmp_path, capsys, blank):
    rows = ["1,0.5,0.5,1,1,3", "0.25,1,0.2,2,1,7", "0.5,0.3,0.9,1,2,4"]
    outputs = []
    for lines in (rows, [rows[0], blank, rows[1], blank, rows[2], blank]):
        obs = tmp_path / "obs.csv"
        obs.write_text(FIT_HEADER + "\n".join(lines) + "\n")
        assert main(["index", "fit", "--observations", str(obs), "--format", "json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[1])["n_obs"] == 3


def test_cli_index_missing_parameters(capsys):
    rc = main(["index", "eval", "--family", "C2w_ab", "--k", "2",
               "--t", "1", "--psi", "0,0"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# -- pavement ------------------------------------------------------------------------


def test_cli_pavement_reduction(capsys):
    rc = main(["pavement", "reduction", "--mix", "100R:0VA+20F"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "8.10811"


def test_cli_pavement_reduction_all(capsys):
    rc = main(["pavement", "reduction"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 7
    assert lines[0].startswith("50R:50V+20F,18.018")


def test_cli_pavement_table_round_trips(tmp_path, capsys):
    rc = main(["pavement", "table"])
    assert rc == 0
    text = capsys.readouterr().out
    path = tmp_path / "table.csv"
    path.write_text(text)
    from sustkit.pavement import load_mix_table

    assert load_mix_table(path) == load_mix_table()
    # and prints the same bytes again
    assert main(["pavement", "table", "--table", str(path)]) == 0
    assert capsys.readouterr().out == text


def test_cli_pavement_unknown_mix(capsys):
    rc = main(["pavement", "reduction", "--mix", "nope"])
    assert rc == 1
    assert "no mix labelled" in capsys.readouterr().err


def test_cli_key_error_prints_its_message_unquoted(capsys):
    # find_mix raises KeyError, whose str() would wrap the message in quotes
    assert main(["pavement", "reduction", "--mix", "nope"]) == 1
    assert capsys.readouterr().err.startswith("error: no mix labelled 'nope'; available: [")


# -- entry point -----------------------------------------------------------------------


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "sustkit.cli", "pavement", "reduction",
         "--mix", "50R:50V+20F"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "18.018"


def test_cli_stdout_deterministic_across_runs():
    cmd = [sys.executable, "-m", "sustkit.cli", "verify-solutions",
           "--k", "2,3", "--draws", "5", "--seed", "42", "--format", "json"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


# -- input validation and JSON payloads ---------------------------------------------


def test_cli_solve_rejects_zero_dt(tmp_path, capsys):
    spec = tmp_path / "sq.json"
    spec.write_text(
        json.dumps({"domain": [[0.0, 1.0], [0.0, 1.0]], "resolution": [9, 9], "t_end": 0.1})
    )
    rc = main(["solve", "--spec", str(spec), "--dt", "0", "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: dt must be positive")


def test_cli_solve_rejects_infinite_t_end(tmp_path, capsys):
    spec = tmp_path / "sq.json"
    spec.write_text(
        '{"domain": [[0.0, 1.0], [0.0, 1.0]], "resolution": [9, 9], "t_end": Infinity}'
    )
    rc = main(["solve", "--spec", str(spec), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: t_end must be positive")


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_cli_verify_solutions_passes_up_to_k7(seed, capsys):
    # The residual tolerance scales with the time coefficient, which reaches
    # 1e5 at k = 7; an absolute 1e-12 fails there on rounding alone.
    rc = main(["verify-solutions", "--k", "2,3,4,5,6,7", "--seed", str(seed),
               "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert all(rec["ok"] for rec in payload)
    uncorrected = [rec for rec in payload if rec["variant"] == "C_ab(uncorrected)"]
    assert len(uncorrected) == 6
    assert all(rec["max_residual_coeff"] > 1.0 for rec in uncorrected)


def test_cli_verify_solutions_judges_the_uncorrected_record_relative(capsys):
    # At k = 10 the uncorrected C_ab residual is about 6e7; it equals its
    # closed form to rounding, which an absolute 1e-9 would call a failure.
    rc = main(["verify-solutions", "--k", "10", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "FAIL" not in out
    assert "PASS  C_ab(uncorrected)  k=10" in out


@pytest.mark.parametrize("seed", [0, 1])
def test_cli_verify_solutions_k2_to_k7_matches_reference_output(seed, capsys):
    # Reference files hold the output of the residuals taken one single
    # derivative at a time.  Their k >= 6 coefficients are rounding (about
    # 1e-11), so a change in the order of multiplication shows here.
    data = Path(__file__).parent / "data"
    assert main(["verify-solutions", "--k", "2,3,4,5,6,7", "--seed", str(seed),
                 "--format", "json"]) == 0
    assert capsys.readouterr().out == (data / f"verify_k2-7_seed{seed}.json").read_text()


def test_cli_json_payloads_match_reference_output(tmp_path, capsys):
    # Reference files hold the output of the field-by-field serialisation
    # that the dataclass-based one replaced.
    data = Path(__file__).parent / "data"
    assert main(["verify-solutions", "--k", "2", "--draws", "2", "--format", "json"]) == 0
    assert capsys.readouterr().out == (data / "verify_k2_draws2.json").read_text()
    assert main(["pavement", "table", "--format", "json"]) == 0
    assert capsys.readouterr().out == (data / "pavement_table.json").read_text()
    assert main(["rs", "bound", "--f", "x", "--omega", "x", "--lo", "0", "--hi", "1",
                 "--format", "json"]) == 0
    assert capsys.readouterr().out == (
        '{"holds": true, "integral": 0.5, "lhs": 1.0, "omega_nondecreasing": true, '
        '"rhs": 0.5, "sup_f": 1.0, "sup_f_zero": false}\n'
    )
    obs = tmp_path / "obs.csv"
    obs.write_text("t,psi1,psi2,omega1,omega2,H_obs\n1,0.5,0.5,1,1,3\n0.25,1,0.2,2,1,7\n")
    assert main(["index", "fit", "--observations", str(obs), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["alpha", "beta", "n_obs", "residual_norm"]
    assert payload["n_obs"] == 2


def test_cli_index_eval_full_precision_matches_exact_value(capsys):
    # Exact rational arithmetic on the float inputs is the reference; the
    # printed double must be within 1e-15 of it, relative.
    from fractions import Fraction
    import random

    def exact(variant, k, t, psi, w, alpha, beta):
        fact = math.factorial(k)
        t, alpha, beta = Fraction(t), Fraction(alpha), Fraction(beta)
        psi = [Fraction(x) for x in psi]
        w = [Fraction(x) for x in w]
        if variant in ("T1a", "T1b"):
            c = Fraction(1, 2) if variant == "T1a" else Fraction(1)
            return 2 * c * k * t + c * sum(x * x for x in psi)
        one = [Fraction(1)] * k
        a, b, w = {
            "T2a": (Fraction(1, fact), 1, one),
            "T2b": (1, 1, one),
            "C_ab": (alpha, beta, one),
            "T3w": (1, 1, w),
            "C1w": (Fraction(1, fact), 1, w),
            "C2w_ab": (alpha, beta, w),
        }[variant]
        prod_w = math.prod(w)
        return ((a * fact * sum(w) + b * prod_w) * t
                + a * sum(wi * x**k for wi, x in zip(w, psi))
                + b * prod_w * math.prod(psi))

    rng = random.Random(11)
    variants = ("T1a", "T1b", "T2a", "T2b", "C_ab", "T3w", "C1w", "C2w_ab")
    for probe in range(160):
        k, variant = rng.randint(2, 7), variants[probe % len(variants)]
        t, alpha, beta = rng.uniform(0, 2), rng.uniform(0.2, 3), rng.uniform(0.2, 3)
        psi = [rng.uniform(0, 1.2) for _ in range(k)]
        w = [rng.uniform(0.1, 3) for _ in range(k)]
        rc = main(["index", "eval", "--family", variant, "--t", repr(t),
                   "--psi", ",".join(map(repr, psi)), "--weights", ",".join(map(repr, w)),
                   "--alpha", repr(alpha), "--beta", repr(beta), "--precision", "full"])
        assert rc == 0
        got = Fraction(float(capsys.readouterr().out))
        want = exact(variant, k, t, psi, w, alpha, beta)
        assert abs(got - want) <= Fraction(1, 10**15) * want, (variant, k, probe)


# -- bad input: exit 1 with one error line -------------------------------------------

FIT_HEADER = "t,psi1,psi2,omega1,omega2,H_obs\n"
SPEC = {"domain": [[0.0, 1.0], [0.0, 1.0]], "resolution": [5, 5], "t_end": 0.1}
RS = ["rs", "integrate", "--omega", "x", "--lo", "0", "--hi", "1"]
ALL_RS_VERBS = "sum, integrate, variation, bound"

BAD_INPUT = {
    "integrate_nan_eta": (None, RS + ["--eta", "nan"]),
    "bound_negative_eta": (None, ["rs", "bound"] + RS[2:] + ["--eta", "-1"]),
    "integrate_unreachable_eta": (
        None, ["rs", "integrate", "--f", "exp(x)", "--omega", "step(x-0.5)", "--lo", "0",
               "--hi", "1", "--eta", "1e-17"]),
    "integrate_shared_jump": (
        None, ["rs", "integrate", "--f", "step(x-0.5)", "--omega", "step(x-0.5)",
               "--lo", "0", "--hi", "1"]),
    "sum_over_the_interval_budget": (
        None, ["rs", "sum", "--f", "x", "--omega", "x", "--lo", "0", "--hi", "1",
               "--n", "100000000"]),
    "spec_fractional_resolution": ({**SPEC, "resolution": [3.7, 5]}, ["solve"]),
    "spec_boolean_boundary": ({**SPEC, "boundary": True}, ["solve"]),
    "spec_boolean_initial": ({**SPEC, "initial": False}, ["solve"]),
    "spec_scalar_resolution": ({**SPEC, "resolution": 9}, ["solve"]),
    "spec_scalar_domain": ({**SPEC, "domain": 5}, ["solve"]),
    "spec_boolean_s": ({**SPEC, "s": True}, ["solve"]),
    "spec_string_t_end": ({**SPEC, "t_end": "0.5"}, ["solve"]),
    "spec_string_dt": ({**SPEC, "dt": "0.01"}, ["solve"]),
    "spec_nan_s": ({**SPEC, "s": float("nan")}, ["solve"]),
    "spec_misspelled_keys": ({**SPEC, "boundry": 5, "intial": 3}, ["solve"]),
    "spec_infinite_s": ({**SPEC, "s": float("inf")}, ["solve"]),
    "fit_json_string_psi": (
        [{"t": 0.1 * i, "psi": "12", "omega": [1, 1], "H_obs": 0.5 + i} for i in range(3)],
        ["index", "fit"]),
    "fit_json_misspelled_omega": (
        [{"t": 0.1 * i, "psi": [0.2 * i, 0.3 + i * i], "omega": [1, 2], "omgea": [9, 9],
          "H_obs": 0.5 + i} for i in range(4)],
        ["index", "fit"]),
    "fit_json_string_t": (
        [{"t": str(0.1 * i), "psi": [0.2 * i, 0.3 + i * i], "omega": [1, 2], "H_obs": 0.5 + i}
         for i in range(3)],
        ["index", "fit"]),
    "fit_empty_file": ("", ["index", "fit"]),
    "fit_header_only": (FIT_HEADER, ["index", "fit"]),
    "fit_too_few_fields": (FIT_HEADER + "0.1,0.2,0.3,1,1,0.5\n0.2,0.3,1,1,0.5\n", ["index", "fit"]),
    "fit_too_many_fields": (
        FIT_HEADER + "0.1,0.2,0.3,1,1,0.5\n0.2,0.2,0.3,1,1,0.5,7\n", ["index", "fit"]),
    "fit_comment_row": (
        FIT_HEADER + "0.1,0.2,0.3,1,1,0.5\n#0.2,0.2,0.3,1,1,0.6\n0.3,0.1,0.2,1,1,0.4\n"
        "0.4,0.3,0.1,1,1,0.7\n", ["index", "fit"]),
    "fit_trailing_comment": (
        FIT_HEADER + "0.1,0.2,0.3,1,1,0.5\n0.2,0.2,0.3,1,1,1.9 # note\n0.3,0.1,0.2,1,1,0.4\n",
        ["index", "fit"]),
    "fit_nan_weight": (
        FIT_HEADER + "0.1,0.2,0.3,1,1,0.5\n0.2,0.2,0.3,nan,1,0.5\n0.3,0.1,0.2,1,1,0.4\n",
        ["index", "fit"]),
    "fit_without_observations": (None, ["index", "fit"]),
    "figures_normalized_zero_s": (
        None, ["figures", "--which", "fig4", "--s", "0", "--normalized", "--resolution", "11",
               "--t-end", "0.01"]),
    "figures_resolution_one": (None, ["figures", "--which", "fig5", "--resolution", "1"]),
    "figures_resolution_zero": (None, ["figures", "--which", "fig5", "--resolution", "0"]),
    "verify_empty_k": (None, ["verify-solutions", "--k", ""]),
    "integrate_reciprocal_pole": (
        None, ["rs", "integrate", "--f", "1/x", "--omega", "x", "--lo", "0", "--hi", "1"]),
    "integrate_log_pole": (
        None, ["rs", "integrate", "--f", "log(x)", "--omega", "x", "--lo", "0", "--hi", "1"]),
    "integrate_bool_constant": (
        None, ["rs", "integrate", "--f", "x + True", "--omega", "x", "--lo", "0", "--hi", "1"]),
    "sum_n_beyond_float_range": (
        None, ["rs", "sum", "--f", "x", "--omega", "x", "--lo", "0", "--hi", "1",
               "--n", "1" + "0" * 400]),
    # constants evaluate as numpy scalars, so these are inf or nan, not Python errors
    "integrate_constant_division_by_zero": (None, RS + ["--f", "1/0"]),
    "integrate_constant_overflow": (None, RS + ["--f", "2.0**10000"]),
    "integrate_constant_complex_root": (None, RS + ["--f", "(0-1)**0.5"]),
    "integrate_constant_zero_to_negative_power": (None, RS + ["--f", "0**-1"]),
    "integrate_int_constant_beyond_float_range": (None, RS + ["--f", "1" + "0" * 400]),
    "verify_factorial_beyond_float_range": (None, ["verify-solutions", "--k", "171"]),
    "verify_coefficient_beyond_float_range": (None, ["verify-solutions", "--k", "170"]),
    "eval_factorial_beyond_float_range": (
        None, ["index", "eval", "--family", "T2a", "--k", "171", "--psi", ",".join(["0.5"] * 171)]),
    "eval_value_nan_at_k_170": (
        None, ["index", "eval", "--family", "C2w_ab", "--alpha", "1", "--beta", "1", "--k", "170",
               "--psi", ",".join(["0.5"] * 170)]),
    "eval_value_beyond_float_range": (
        None, ["index", "eval", "--family", "C2w_ab", "--alpha", "1e308", "--beta", "1e308",
               "--t", "1e308", "--psi", "0.1,0.2"]),
    "seven_weights_beyond_float_range": (
        None, ["index", "seven", "--psi", "0.1,0.2,0.3,0.4,0.5,0.6,0.7", "--weights",
               ",".join(["1e300"] * 7), "--alpha", "1", "--beta", "1"]),
    "fit_basis_beyond_float_range": (
        FIT_HEADER + "0.1,1e200,0.3,1,1,0.5\n0.2,0.3,0.4,1,1,0.7\n", ["index", "fit"]),
    "sum_beyond_float_range": (
        None, ["rs", "sum", "--f", "x", "--omega", "x", "--lo", "0", "--hi", "1e308", "--n", "4"]),
    "integrate_sums_beyond_float_range": (
        None, ["rs", "integrate", "--f", "x", "--omega", "x", "--lo", "0", "--hi", "1e308"]),
    "bound_sums_beyond_float_range": (
        None, ["rs", "bound", "--f", "x", "--omega", "x", "--lo", "0", "--hi", "1e308"]),
    "variation_length_beyond_float_range": (
        None, ["rs", "variation", "--omega", "x", "--lo=-1e308", "--hi=1e308"]),
    "variation_partition_length_beyond_float_range": (
        None, ["rs", "variation", "--omega", "x", "--lo=-1e308", "--hi=1e308", "--n", "4"]),
    "variation_sum_beyond_float_range": (
        None, ["rs", "variation", "--omega", "1e308*sin(50*x)", "--lo", "0", "--hi", "1"]),
    "pavement_unknown_mix": (None, ["pavement", "reduction", "--mix", "nope"]),
    # t_end / dt is inf: refused before the step count becomes an int
    "spec_step_count_beyond_float_range": ({**SPEC, "dt": 1e-320}, ["solve"]),
    "figures_step_count_beyond_float_range": (
        None, ["figures", "--which", "fig5", "--t-end", "1e308"]),
    # the initial sine modes overflow, so the AffineRule run would take all 44 M steps
    "spec_stepped_affine_beyond_step_budget": (
        {"domain": [[0, 900], [0, 900]], "resolution": [91, 91], "t_end": 1e9, "initial": 1e307},
        ["solve"]),
    # an option before its verb: the error says so, not that its value is no verb
    "rs_option_before_verb": (None, ["rs", "--omega", "x", "integrate", "--lo", "0", "--hi", "1"]),
    "index_option_before_verb": (None, ["index", "--psi", "0.1", "eval"]),
    "pavement_option_before_verb": (None, ["pavement", "--format", "json", "table"]),
    # each names its cause, which a later error would not: a KeyError, an empty
    # domain, a table that prints, an operator that fails or an ignored argument
    "spec_without_t_end": ({key: SPEC[key] for key in ("domain", "resolution")}, ["solve"],
                           "scenario spec is missing required fields ['t_end']"),
    "integrate_one_sample_table": (
        ("one.csv", "x,value\n0,1\n"),
        ["rs", "integrate", "--omega", "table:one.csv", "--lo", "0", "--hi", "1"],
        "one.csv: need at least two samples"),
    "pavement_table_header_only": (
        ("mix.csv", ",".join(MIX_CSV_COLUMNS) + "\n"), ["pavement", "table", "--table", "mix.csv"],
        "mix.csv: no data rows"),
    "integrate_not_operator": (None, RS + ["--f", "not x"], "unsupported operator Not"),
    "integrate_call_with_two_arguments": (
        None, RS + ["--f", "exp(x, 1)"], "only f(expr) calls with one argument are allowed"),
    # a grid's name keeps 6 digits of its time: two steps (dt = 0.00225) would share a file
    "spec_snapshots_sharing_a_file": (
        {"domain": [[0, 1], [0, 1]], "resolution": [11, 11], "t_end": 0.01},
        ["solve", "--snapshots", "0.00337499999,0.00337500001"],
        "snapshots at t=0.0022500000000000003 and t=0.0045000000000000005 would both be "
        "written to spec_t0.003375.csv"),
    "figures_snapshots_sharing_a_file": (
        None, ["figures", "--which", "fig4", "--resolution", "5", "--t-end", "1",
               "--snapshots", "0.007031249,0.007031251"],
        "snapshots at t=0.0 and t=0.0140625 would both be written to fig4_a_t0.00703125.csv"),
    "figures_normalized_s_t_underflows": (
        None, ["figures", "--which", "fig4", "--resolution", "5", "--s", "5e-324", "--t-end",
               "0.1", "--normalized"],
        "normalized grids are divided by s*t, which is 0 for s=5e-324 at t=0.0984375"),
    "integrate_sum_nested_too_deep": (
        None, RS + ["--f", "+".join(["x"] * 1000)], "expression nested deeper than 200 levels"),
    # depending on the Python version, ast.parse or the depth check refuses the first
    "integrate_minus_nested_too_deep": (None, RS + ["--f=" + "-" * 3000 + "x"], "nested"),
    "integrate_minus_nested_too_deep_to_parse": (
        None, RS + ["--f=" + "-" * 100000 + "x"], "expression nested too deeply to parse"),
}


def _assert_exits_one_with_error_line(argv):
    stderr = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")  # a warning would reach stderr
        rc = main(argv)
    err = stderr.getvalue()
    assert rc == 1, argv
    assert err.startswith("error:"), (argv, err)
    assert "Traceback" not in err
    assert err.count("\n") == 1, (argv, err)
    return err


@pytest.mark.parametrize("case", sorted(BAD_INPUT))
def test_cli_bad_input_exits_one_with_error_line(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where a figures case would write its grids
    content, argv, *cause = BAD_INPUT[case]
    if isinstance(content, tuple):  # a named file in the working directory
        name, text = content
        (tmp_path / name).write_text(text)
    elif isinstance(content, dict):  # a scenario spec
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(content))
        argv = argv + ["--spec", str(spec), "--out", str(tmp_path / "out")]
    elif isinstance(content, str):  # an observations CSV
        obs = tmp_path / "obs.csv"
        obs.write_text(content)
        argv = argv + ["--observations", str(obs)]
    elif isinstance(content, list):  # observation records in JSON
        obs = tmp_path / "obs.json"
        obs.write_text(json.dumps(content))
        argv = argv + ["--observations", str(obs)]
    inputs = sorted(tmp_path.rglob("*"))
    err = _assert_exits_one_with_error_line(argv)
    assert all(c in err for c in cause), err
    assert sorted(tmp_path.rglob("*")) == inputs  # a refused run writes nothing


def test_cli_level_over_the_interval_budget_exits_one(monkeypatch, capsys):
    # the same refusal as at the 2**24 budget, which needs about 400 MB first
    monkeypatch.setattr(riemann_stieltjes, "_MAX_INTERVALS", 2**10)
    err = _assert_exits_one_with_error_line(["rs", "integrate", "--f", "x", "--omega", "x^2",
                                             "--lo", "0", "--hi", "1", "--eta", "1e-300"])
    assert "dyadic level 11 would hold 2048 intervals, over the budget of 1024" in err
    # the variation stops at the last level within the budget and gives its sum
    omega = "sin(1000*x)"
    assert main(["rs", "variation", "--omega", omega, "--lo", "0", "--hi", "1", "--n", "1024",
                 "--precision", "full"]) == 0
    level_10 = float(capsys.readouterr().out)
    assert main(["rs", "variation", "--omega", omega, "--lo", "0", "--hi", "1",
                 "--precision", "full"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(level_10, rel=1e-12)


def test_cli_family_beyond_the_float_range_is_named_in_one_short_line():
    err = _assert_exits_one_with_error_line(["verify-solutions", "--k", "170"])
    assert err == "error: non-finite coefficient in T2b at k=170 (beyond the float range)\n"
    assert len(err) < 200


def test_cli_spec_that_is_not_an_object_exits_one(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text("5")
    _assert_exits_one_with_error_line(["solve", "--spec", str(spec), "--out", str(tmp_path)])


@pytest.mark.parametrize("s", ["nan", "inf", "-inf"])
def test_cli_figures_non_finite_s_names_s_and_writes_nothing(tmp_path, s):
    out = tmp_path / "out"
    err = _assert_exits_one_with_error_line(
        ["figures", "--which", "fig4", "--resolution", "5", f"--s={s}", "--out", str(out)])
    assert err.startswith("error: s must be finite")
    assert not out.exists()


def _parses(kind, text):
    try:
        kind(text)
    except ValueError:
        return False
    return True


NON_FINITE_TEXT = st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity"])
NOT_A_NUMBER = st.text(max_size=8).filter(lambda t: not _parses(float, t))
BAD_ETA = st.one_of(NON_FINITE_TEXT, NOT_A_NUMBER, st.sampled_from(["0", "-0", "0.0"]),
                    st.floats(max_value=0.0, allow_nan=False).map(repr))
BAD_INTERVAL = st.one_of(
    # lo >= hi
    st.tuples(st.floats(-1e300, 1e300), st.floats(0.0, 1e300)).map(
        lambda p: (repr(p[0]), repr(p[0] - p[1]))),
    st.one_of(NON_FINITE_TEXT, NOT_A_NUMBER).map(lambda v: (v, "1")),
    st.one_of(NON_FINITE_TEXT, NOT_A_NUMBER).map(lambda v: ("0", v)),
)
RS_VERBS = st.sampled_from(["integrate", "variation", "bound"])


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    # eta is read by integrate and bound only
    st.tuples(st.sampled_from(["integrate", "bound"]), BAD_ETA.map(lambda v: [f"--eta={v}"])),
    st.tuples(RS_VERBS, BAD_INTERVAL.map(lambda p: [f"--lo={p[0]}", f"--hi={p[1]}"])),
))
def test_cli_rs_drawn_bad_numbers_exit_one(case):
    verb, options = case
    integrand = [] if verb == "variation" else ["--f", "x"]  # variation has no integrand
    err = _assert_exits_one_with_error_line(
        ["rs", verb, *integrand, "--omega", "x^2", "--lo=0", "--hi=1", *options])
    assert "unrecognized arguments" not in err  # the drawn value was parsed and refused


def _bad_whole(minimum):
    """Texts a whole-number option with this minimum must refuse."""
    return st.one_of(
        NON_FINITE_TEXT, st.integers(max_value=minimum - 1).map(str),
        st.floats(-1e6, 1e6).filter(lambda x: not x.is_integer()).map(repr),
        st.text(max_size=8).filter(lambda t: not _parses(int, t)),
    )


def _int_list(text):
    return [int(v) for v in text.replace(",", " ").split()]


# the last occurrence of an option wins, so a drawn value overrides these
FIGURES = ["figures", "--which", "fig5", "--resolution=5", "--t-end=0.01"]
INDEX_EVAL = ["index", "eval", "--family", "C2w_ab", "--psi", "0.1,0.2", "--alpha=1", "--beta=1"]
BAD_POSITIVE = BAD_ETA  # non-numbers, NaN, infinities, zero and negatives
OTHER_VERB_CASES = st.one_of(
    st.tuples(st.just(["rs", "sum", "--f", "x", "--omega", "x^2", "--lo=0", "--hi=1"]),
              st.just("--n"), _bad_whole(1)),
    # the spec's stability bound is 0.9 / (2 * 2 / 0.25^2) = 0.0141
    st.tuples(st.just(["solve"]), st.just("--dt"),
              st.one_of(BAD_POSITIVE, st.floats(0.015, 1e300).map(repr))),
    st.tuples(st.just(FIGURES), st.just("--s"), st.one_of(NON_FINITE_TEXT, NOT_A_NUMBER)),
    st.tuples(st.just(FIGURES + ["--normalized"]), st.just("--s"),
              st.sampled_from(["0", "-0", "0.0"])),
    st.tuples(st.just(FIGURES), st.just("--t-end"), BAD_POSITIVE),
    st.tuples(st.just(FIGURES), st.just("--resolution"), _bad_whole(3)),
    st.tuples(st.just(INDEX_EVAL), st.just("--t"), st.one_of(NON_FINITE_TEXT, NOT_A_NUMBER)),
    st.tuples(st.just(INDEX_EVAL), st.just("--k"), _bad_whole(2)),
    st.tuples(st.just(INDEX_EVAL), st.just("--alpha"), BAD_POSITIVE),
    st.tuples(st.just(["verify-solutions"]), st.just("--k"), st.one_of(
        NON_FINITE_TEXT, st.integers(max_value=1).map(str),
        st.text(max_size=8).filter(lambda t: not _parses(_int_list, t))).map(lambda v: "2," + v)),
    st.tuples(st.just(["verify-solutions"]), st.just("--draws"), _bad_whole(1)),
)


@pytest.fixture(scope="module")
def drawn_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("drawn")
    (path / "spec.json").write_text(json.dumps(SPEC))
    return path


@settings(max_examples=300, deadline=None)
@given(OTHER_VERB_CASES)
@example((INDEX_EVAL, "--k", "0"))
@example((FIGURES, "--s", "abc"))
def test_cli_other_verbs_drawn_bad_numbers_exit_one(drawn_dir, case):
    argv, option, value = case
    if argv[0] == "solve":
        argv = argv + ["--spec", str(drawn_dir / "spec.json")]
    if argv[0] in ("solve", "figures"):
        argv = argv + ["--out", str(drawn_dir / "out")]
    _assert_exits_one_with_error_line([*argv, f"{option}={value}"])


@pytest.mark.parametrize("row", [
    "nantotal,70,100,100,185,nan,1344,-", "infdrain,70,inf,100,185,inf,1344,-",
])
def test_cli_non_finite_mix_row_exits_one(tmp_path, row):
    table = tmp_path / "mixes.csv"
    table.write_text("label,ac_mm,drainage_mm,subbase_mm,base_mm,total_mm,base_mr_mpa,reference\n"
                     f"0R:100VA,80,,200,275,555,350,x\n{row}\n")
    _assert_exits_one_with_error_line(["pavement", "reduction", "--table", str(table)])


@pytest.mark.parametrize("body, line", [
    ("0R:100VA,80\n", 2),  # a short row
    ("0R:100VA,80,,200,275,555,350,x,extra\n", 2),  # a field beyond the header
    ("\n   \n\n0R:100VA,80,,200,275,556,350,x\n", 5),  # the file line, not the row count
])
def test_cli_bad_mix_row_names_file_line(tmp_path, body, line):
    table = tmp_path / "mixes.csv"
    table.write_text("label,ac_mm,drainage_mm,subbase_mm,base_mm,total_mm,base_mr_mpa,reference\n"
                     + body)
    err = _assert_exits_one_with_error_line(["pavement", "table", "--table", str(table)])
    assert err.startswith(f"error: {table}, line {line}: ")


def test_cli_bad_observation_after_blank_lines_names_file_line(tmp_path):
    obs = tmp_path / "obs.csv"
    obs.write_text(FIT_HEADER + "0.1,0.2,0.3,1,1,0.5\n\n  \n0.2,x,0.3,1,1,0.5\n")
    err = _assert_exits_one_with_error_line(["index", "fit", "--observations", str(obs)])
    assert err.startswith(f"error: {obs}, line 5: could not convert")


@pytest.mark.parametrize("argv, head, line", [
    (["rs", "integrate", "--lo", "0", "--hi", "1", "--omega", "table:{}"], "x,w\n0,0\n\n1,", 4),
    (["pavement", "table", "--table", "{}"],
     "label,ac_mm,drainage_mm,subbase_mm,base_mm,total_mm,base_mr_mpa,reference\n\nA,80,,", 3),
    (["index", "fit", "--observations", "{}"], "t,psi1,omega1,", 1),
])
def test_cli_field_over_csv_limit_names_file_line(tmp_path, argv, head, line):
    table = tmp_path / "big.csv"
    table.write_text(head + "9" * 200_000 + "\n")
    err = _assert_exits_one_with_error_line([a.format(table) for a in argv])
    assert err.startswith(f"error: {table}, line {line}: field larger than field limit")


# -- each verb takes only the options it reads ------------------------------------------

# the options of each command, and of those the ones each verb reads; no rs verb
# reads --max-refinements, which set the refinement depth before that depth came
# from double precision and the budgets
COMMAND_OPTIONS = {
    "rs": "--f --omega --lo --hi --n --tag-rule --eta --max-refinements --format --precision",
    "index": "--family --k --t --psi --weights --alpha --beta --observations --out --format "
             "--precision",
    "pavement": "--table --mix --baseline --format --precision",
}
VERB_OPTIONS = {
    ("rs", "sum"): "--f --omega --lo --hi --n --tag-rule --precision",
    ("rs", "integrate"): "--f --omega --lo --hi --eta --precision",
    ("rs", "variation"): "--omega --lo --hi --n --precision",
    ("rs", "bound"): "--f --omega --lo --hi --eta --format --precision",
    ("index", "eval"): "--family --k --t --psi --weights --alpha --beta --precision",
    ("index", "seven"): "--t --psi --weights --alpha --beta --precision",
    ("index", "fit"): "--observations --out --format --precision",
    ("pavement", "table"): "--table --format",
    ("pavement", "reduction"): "--table --mix --baseline --precision",
}
# the required options of each verb
VERB_BASE = {
    ("rs", "sum"): ["--omega", "x", "--lo", "0", "--hi", "1", "--n", "4"],
    ("index", "fit"): ["--observations", "obs.csv"],
}
# values that parse, several of them out of their domain; with these,
# rs sum --eta, rs integrate --n and --tag-rule, rs variation --eta,
# index seven --k and pavement reduction --format were read by no verb
# and exited 0
OPTION_VALUES = {
    "--f": "x", "--omega": "x", "--lo": "0", "--hi": "1", "--n": "0", "--tag-rule": "left",
    "--eta": "nan", "--max-refinements": "24", "--format": "json", "--precision": "full",
    "--family": "T1a", "--k": "5", "--t": "1", "--psi": "0.1,0.2", "--weights": "1,1",
    "--alpha": "1", "--beta": "1", "--observations": "obs.csv", "--out": "fit.json",
    "--table": "mixes.csv", "--mix": "100R:0VA+20F", "--baseline": "0R:100VA",
}


def _verb_argv(command, verb):
    base = ["--omega", "x", "--lo", "0", "--hi", "1"] if command == "rs" else []
    return [command, verb, *VERB_BASE.get((command, verb), base)]


READ_PAIRS = [(c, v, option) for (c, v), options in VERB_OPTIONS.items()
              for option in options.split()]
REFUSED_PAIRS = [(c, v, option) for (c, v), options in VERB_OPTIONS.items()
                 for option in COMMAND_OPTIONS[c].split() if option not in options.split()]


def test_cli_verbs_read_49_pairs_and_refuse_34():
    assert (len(READ_PAIRS), len(REFUSED_PAIRS)) == (49, 34)


@pytest.mark.parametrize("command, verb, option", READ_PAIRS)
def test_cli_verb_parses_each_option_it_reads(command, verb, option):
    value = OPTION_VALUES[option]
    args = build_parser().parse_args([*_verb_argv(command, verb), option, value])
    parsed = getattr(args, option[2:].replace("-", "_"))
    assert args.verb == verb
    assert str(parsed) in (value, repr(float(value)) if _parses(float, value) else value)


@pytest.mark.parametrize("command, verb, option", REFUSED_PAIRS)
def test_cli_verb_refuses_each_option_it_does_not_read(command, verb, option):
    argv = [*_verb_argv(command, verb), option, OPTION_VALUES[option]]
    err = _assert_exits_one_with_error_line(argv)
    assert err == f"error: unrecognized arguments: {option} {OPTION_VALUES[option]}\n"


@pytest.mark.parametrize("cap", ["24", "30"])
def test_cli_rs_variation_of_one_partition_refuses_a_refinement_cap(cap):
    err = _assert_exits_one_with_error_line(["rs", "variation", "--omega", "x^2", "--lo", "0",
                                             "--hi", "1", "--n", "4", "--max-refinements", cap])
    assert err == f"error: unrecognized arguments: --max-refinements {cap}\n"


@pytest.mark.parametrize("argv, verbs", [
    (["rs", "--omega", "x", "integrate", "--lo", "0", "--hi", "1"], ALL_RS_VERBS),
    (["rs", "--omega=x", "integrate", "--lo", "0", "--hi", "1"], ALL_RS_VERBS),
    (["rs", "--lo", "-1e-3", "integrate", "--hi", "1"], ALL_RS_VERBS),
    (["index", "--psi", "0.1", "eval"], "eval, seven, fit"),
    (["pavement", "--format", "json", "table"], "table, reduction"),
])
def test_cli_option_before_its_verb_is_named(argv, verbs):
    err = _assert_exits_one_with_error_line(argv)
    assert err == (f"error: options follow the verb: sustkit {argv[0]} VERB {argv[1]} ..., "
                   f"where VERB is one of {verbs}\n")


@pytest.mark.parametrize("lo, want", [("-1e-3", (1.0 - 1e-6) / 2), ("-1E+0", 0.0), ("-.5", 0.375),
                                      ("-2", -1.5)])
def test_cli_negative_numbers_are_values_not_options(capsys, lo, want):
    # argparse's own pattern takes -1e-3 for an unknown option
    assert main(["rs", "integrate", "--f", "x", "--omega", "x", "--lo", lo, "--hi", "1",
                 "--precision", "full"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(want, rel=1e-6, abs=1e-12)
    assert main(["index", "eval", "--family", "C1w", "--psi", "0.1,0.2", "--t", lo]) == 0


@pytest.mark.parametrize("argv", [
    ["rs", "integrate", "--omega", "x", "--lo", "0"],  # --hi missing
    ["rs", "sum", "--f", "x", "--omega", "x", "--lo", "0", "--hi", "1"],  # --n missing
    ["rs", "--omega", "x", "integrate", "--lo", "0", "--hi", "1"],  # options before the verb
    ["rs"],
    ["index", "frobnicate"],
    [],
])
def test_cli_usage_errors_exit_one(argv):
    _assert_exits_one_with_error_line(argv)


# -- checks that need a fresh process ---------------------------------------------------


def _fresh_cli(argv, timeout, python_flags=(), **kwargs):
    """``sustkit argv`` in a fresh interpreter; past ``timeout`` seconds it is
    killed and the test fails, so a hang cannot pass."""
    return subprocess.run([sys.executable, *python_flags, "-m", "sustkit.cli", *argv],
                          capture_output=True, text=True, timeout=timeout, **kwargs)


def _assert_process_exits_one_with_error_line(proc):
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr


def _limit_address_space():
    """Cap the address space at 1.5 GB, for a child process only."""
    import resource

    limit = 1_500_000 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_cli_shared_jump_fails_fast():
    proc = _fresh_cli(["rs", "integrate", "--f", "step(x-0.5)", "--omega", "step(x-0.5)",
                       "--lo", "0", "--hi", "1"], timeout=30)
    _assert_process_exits_one_with_error_line(proc)


def test_cli_full_scale_fig4_reaches_its_horizon(tmp_path):
    # about 41 M FTCS steps if stepped; its AffineRule boundaries jump to each snapshot
    proc = _fresh_cli(["figures", "--which", "fig4", "--out", str(tmp_path)], timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_cli_stepped_affine_run_beyond_the_step_budget_warns_nothing(tmp_path):
    # the initial sine modes overflow, so the run would step 44 M times: refused up
    # front, with no numpy warning first (-W error would make one a traceback)
    spec = tmp_path / "huge.json"
    spec.write_text('{"domain": [[0, 900], [0, 900]], "resolution": [91, 91], "t_end": 1e9, '
                    '"initial": 1e307}')
    proc = _fresh_cli(["solve", "--spec", str(spec), "--out", str(tmp_path / "out")],
                      timeout=30, python_flags=["-W", "error"])
    _assert_process_exits_one_with_error_line(proc)
    assert "MAX_STEPS" in proc.stderr


@pytest.mark.parametrize("argv, spec", [
    (["figures", "--which", "fig4", "--resolution", "5", "--s", "1e308", "--t-end", "2"], None),
    (["solve"], '{"domain": [[0, 1], [0, 1]], "resolution": [5, 5], "t_end": 1, '
                '"initial": 1e308, "boundary": -1e308}'),
], ids=["affine_modes", "initial_modes"])
def test_cli_modes_that_overflow_exit_one_without_a_warning(tmp_path, argv, spec):
    # the forced modes of the AffineRule closed form, where s*t overflows too, and
    # the sine modes of initial - boundary, overflow; under -W error a numpy warning
    # would be a traceback
    if spec is not None:
        (tmp_path / "spec.json").write_text(spec)
        argv = [*argv, "--spec", str(tmp_path / "spec.json")]
    proc = _fresh_cli([*argv, "--out", str(tmp_path / "out")], timeout=30,
                      python_flags=["-W", "error"])
    _assert_process_exits_one_with_error_line(proc)
    assert "non-finite values after step to t=" in proc.stderr


@pytest.mark.parametrize("which", ["fig4", "fig5"])
def test_cli_affine_modes_that_overflow_where_the_field_does_not(tmp_path, which):
    # at s = 1e307 the terms w_n * ones of the sine modes overflow though s*t does
    # not: the modes are scaled by a power of two, which changes no bit
    assert main(["figures", "--which", which, "--s", "1e307", "--t-end", "1",
                 "--out", str(tmp_path)]) == 0
    for label, spec in zip("abcd", figure_scenarios(which, s=1e307, t_end=1.0)):
        rows = np.loadtxt(tmp_path / f"{which}_{label}_t1.csv", delimiter=",", skiprows=1)
        got = rows[:, -1].reshape(spec.resolution)
        assert np.isfinite(got).all()
        small = replace(spec, boundary_rule=AffineRule(s=math.ldexp(1e307, -40)))
        assert np.array_equal(got, np.ldexp(run_scenario(small, [1.0])[0].values, 40))
        # the same boundary as a lambda is stepped from the step where its forced
        # modes could overflow; modal and stepped runs round differently, by up
        # to 7e-14 of the largest |value| on these lattices at s = 10 as well
        stepped = run_scenario(replace(spec, boundary_rule=lambda coords, t: 1e307 * t), [1.0])
        np.testing.assert_allclose(got, stepped[0].values, rtol=0,
                                   atol=1e-12 * np.abs(got).max())


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is Linux's")
@pytest.mark.parametrize("argv", [
    ["rs", "integrate", "--f", "x", "--omega", "x^2", "--lo", "0", "--hi", "1", "--eta", "1e-300"],
    ["rs", "sum", "--f", "x", "--omega", "x", "--lo", "0", "--hi", "1", "--n", "100000000"],
], ids=["integrate_level_25", "sum_of_1e8_intervals"])
def test_cli_interval_budget_refuses_before_allocating(argv):
    # under a 1.5 GB address space, which 2**25 or 1e8 intervals would overrun:
    # the refusal must come before the level or the partition is allocated
    proc = _fresh_cli(argv, timeout=60, preexec_fn=_limit_address_space)
    _assert_process_exits_one_with_error_line(proc)
    assert "over the budget of 16777216 intervals" in proc.stderr


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is Linux's")
@pytest.mark.parametrize("argv, printed", [
    (["rs", "sum", "--f", "x", "--omega", "x"], "0.5\n"),
    (["rs", "variation", "--omega", "x"], "1.0\n"),
], ids=["sum", "variation"])
def test_cli_partition_of_the_whole_interval_budget_fits(argv, printed):
    # one partition of 2**24 intervals, the most the budget admits, fits in a
    # 1.5 GB address space: its points are held as arrays, never as Python floats
    proc = _fresh_cli([*argv, "--lo", "0", "--hi", "1", "--n", "16777216", "--precision", "full"],
                      timeout=30, preexec_fn=_limit_address_space)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, printed, "")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is Linux's")
@pytest.mark.parametrize("k", ["400", "100000", "100000000"])
def test_cli_verify_solutions_beyond_the_float_range_refuses_before_drawing(k):
    # every k above 169 is refused before its first draw, so within 2 s and
    # under a 1.5 GB address space, which k draws per family would overrun
    proc = _fresh_cli(["verify-solutions", "--k", k, "--draws", "1"], timeout=2,
                      preexec_fn=_limit_address_space)
    _assert_process_exits_one_with_error_line(proc)
    assert proc.stderr == f"error: non-finite coefficient in T2a at k={k} (beyond the float range)\n"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is Linux's")
def test_cli_out_of_memory_is_one_error_line(tmp_path):
    # 60 snapshots of a 2048 x 2048 lattice, 32 MiB each, overrun a 1.5 GB address space
    spec = tmp_path / "big.json"
    spec.write_text('{"domain": [[0, 1], [0, 1]], "resolution": [2048, 2048], "t_end": 1e-9}')
    proc = _fresh_cli(["solve", "--spec", str(spec), "--format", "json", "--snapshots",
                       ",".join(["0"] * 60), "--out", str(tmp_path / "out")],
                      timeout=60, preexec_fn=_limit_address_space)
    _assert_process_exits_one_with_error_line(proc)
    assert proc.stderr.startswith("error: out of memory"), proc.stderr


def test_import_loads_no_third_party_module_but_numpy():
    # numpy is the only runtime dependency, and any other import would add to
    # every command's start-up time
    code = ("import json, sys; before = set(sys.modules); import sustkit; "
            "print(json.dumps(sorted({m.partition('.')[0] for m in set(sys.modules) - before})))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout)) - set(sys.stdlib_module_names)
    assert loaded == {"numpy", "sustkit"}


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is Linux's")
@pytest.mark.parametrize("which, resolution, points", [
    ("fig4", "40000", 1600000000), ("fig5", "100000", 6666700000)])
def test_cli_figures_beyond_the_lattice_budget_refuse_before_allocating(tmp_path, which,
                                                                       resolution, points):
    # 11.9 and 49.7 GiB for the first panel's lattice alone
    out = tmp_path / "out"
    proc = _fresh_cli(["figures", "--which", which, "--resolution", resolution, "--out", str(out)],
                      timeout=60, preexec_fn=_limit_address_space)
    _assert_process_exits_one_with_error_line(proc)
    assert proc.stderr == (f"error: a lattice of {points} points exceeds "
                           "MAX_LATTICE_POINTS = 4194304\n")
    assert not out.exists()
