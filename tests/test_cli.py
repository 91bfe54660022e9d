"""End-to-end subprocess runs of the ``ccroots`` command line.

Every invocation goes through ``python -m ccroots.cli`` so argument parsing,
exit codes, stdout/stderr wording, output files, and run manifests are
exercised exactly as a shell user sees them.

Oracles:
  * the Hubbard dimer's three hand-eliminated roots with energies
    2 - 2*sqrt(2), 4, and 2 + 2*sqrt(2) (same closed form as test_ccpoly),
  * the singles-only dimer, whose four roots carry energies 0, 0, +-2*sqrt(5)
    - none an eigenvalue, a spurious-root corpus for ``verify``,
  * byte-identical reruns: repeating a command must reproduce every output
    file exactly; the manifest may differ only in its timestamp.
"""

import csv
import hashlib
import json
import os
import subprocess
import sys

from pathlib import Path

import numpy as np
import pytest

import ccroots
from ccroots.ccpoly import Polynomial, PolynomialSystem
from ccroots.model import build_pairing, model_to_dict, save_integrals

# the subprocesses import the same copy of the package as these tests
PACKAGE_ROOT = Path(ccroots.__file__).resolve().parents[1]

SQRT2 = np.sqrt(2.0)
DIMER_ENERGIES = sorted([2.0 - 2.0 * SQRT2, 4.0, 2.0 + 2.0 * SQRT2])

# pairing(4 levels, spacing 1.0, g 0.33, 2 pairs) at rho = 2: the lowest
# lam = 0 state continued to lam = 1 lands on the full-cluster ground state.
# Constants frozen from a converged run, cross-checked against exact
# diagonalization in test_kp.
PAIRING_E_FULL = 1.8498518351360727
PAIRING_DELTA_E = -0.0005906742272834276


def run(*args, env=None):
    env = dict(os.environ, **(env or {}))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE_ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run(
        [sys.executable, "-m", "ccroots.cli"] + [str(a) for a in args],
        capture_output=True, text=True, env=env)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def sha256(path):
    return hashlib.sha256(read_bytes(path)).hexdigest()


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Dimer model/system/solutions and a pairing model, built via the CLI."""
    d = tmp_path_factory.mktemp("cli")
    for args in (
        ["model", "--hubbard", "2,1,4", "--nelec", "1,1",
         "-o", d / "dimer.json"],
        ["system", "--model", d / "dimer.json", "--rank", "full",
         "-o", d / "dimer_sys.json"],
        ["solve", "--system", d / "dimer_sys.json", "--seed", "0",
         "--workers", "1", "-o", d / "dimer_sol.json"],
        ["model", "--pairing", "4,1.0,0.33,2", "-o", d / "pairing42.json"],
    ):
        r = run(*args)
        assert r.returncode == 0, r.stderr
    return d


@pytest.fixture(scope="module")
def rank1(work, tmp_path_factory):
    """Singles-only dimer solutions: four roots, all energies spurious."""
    d = tmp_path_factory.mktemp("rank1")
    r = run("system", "--model", work / "dimer.json", "--rank", "1",
            "-o", d / "sys.json")
    assert r.returncode == 0, r.stderr
    r = run("solve", "--system", d / "sys.json", "--workers", "1",
            "-o", d / "sol.json")
    assert r.returncode == 0, r.stderr
    return d


@pytest.fixture(scope="module")
def kp_out(work, tmp_path_factory):
    """One rho = 2 truncation-homotopy run on the pairing model."""
    d = tmp_path_factory.mktemp("kp")
    r = run("kp", "--model", work / "pairing42.json", "--rho", "2",
            "--workers", "1", "-o", d / "base")
    assert r.returncode == 0, r.stderr
    assert "reached_full" in r.stdout
    return d


# --- global flags --------------------------------------------------------------

def test_parser_is_built_once_and_commands_parse_independently(monkeypatch, tmp_path):
    from ccroots import cli

    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "_parser", cli.functools.cache(
        lambda: builds.append(1) or build()))
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert cli.main(["model", "--hubbard", "2,1,4", "--nelec", "1,1",
                     "--reference", "0,3", "-o", str(first)]) == 0
    assert cli.main(["system", "--model", str(first), "-o", str(tmp_path / "s.json")]) == 0
    assert cli.main(["model", "--hubbard", "2,1,4", "--nelec", "1,1", "-o", str(second)]) == 0
    assert read_json(first)["reference"] == [0, 3]
    assert read_json(second)["reference"] == [0, 1]        # the default again
    parser = cli._parser()
    solve = parser.parse_args(["solve", "--system", "a.json", "--seed", "5",
                               "--trace-dir", "t", "--workers", "2", "-o", "s.json"])
    kp = parser.parse_args(["kp", "--model", "m.json", "--rho", "2", "-o", "p"])
    again = parser.parse_args(["solve", "--system", "b.json", "-o", "s2.json"])
    assert vars(kp) == {"log_level": "WARNING", "command": "kp", "model": "m.json",
                        "rho": 2, "state": "0", "homotopy_starts": False, "seed": 0,
                        "workers": None, "output": "p", "func": cli.cmd_kp}
    assert vars(again) == {"log_level": "WARNING", "command": "solve", "system": "b.json",
                           "seed": 0, "trace_dir": None, "workers": None,
                           "output": "s2.json", "func": cli.cmd_solve}
    assert (solve.seed, solve.trace_dir, solve.workers) == (5, "t", 2)
    assert len(builds) == 1


def test_chain_run_twice_in_one_process_is_byte_identical(monkeypatch, tmp_path):
    # a bench worker runs its chain pass after pass in one process: state kept
    # between commands (compiled tables, parser, workspaces) must not change a byte
    from ccroots import cli

    chain = [
        ["model", "--hubbard", "2,1,4", "--nelec", "1,1", "-o", "model.json"],
        ["system", "--model", "model.json", "--rank", "full", "-o", "system.json"],
        ["solve", "--system", "system.json", "--seed", "7", "--workers", "1",
         "-o", "sol.json"],
        ["verify", "--model", "model.json", "--solutions", "sol.json", "-o", "report.json"],
        ["model", "--pairing", "4,1.0,0.33,2", "-o", "pairing.json"],
        ["kp", "--model", "pairing.json", "--rho", "2", "--workers", "1", "-o", "kp"],
    ]
    passes = []
    for k in range(2):
        pass_dir = tmp_path / f"pass{k}"
        pass_dir.mkdir()
        monkeypatch.chdir(pass_dir)
        for argv in chain:
            assert cli.main(argv) == 0, argv
        files = {}
        for path in sorted(pass_dir.iterdir()):
            data = path.read_bytes()
            if path.name.endswith(".manifest.json"):
                doc = json.loads(data)
                doc.pop("timestamp")
                data = json.dumps(doc, sort_keys=True).encode()
            files[path.name] = data
        passes.append(files)
    assert passes[0] == passes[1]
    assert {"sol.json", "report.json", "kp.bundle.json", "kp.trajectory.csv"} <= set(passes[0])


def test_version_flag_exits_cleanly():
    r = run("--version")
    assert r.returncode == 0
    assert r.stdout.strip()


def test_unknown_subcommand_is_usage_error():
    r = run("frobnicate")
    assert r.returncode == 2


# --- model ----------------------------------------------------------------------


def test_model_writes_json_and_manifest(work):
    data = read_json(work / "dimer.json")
    assert data["n_spatial"] == 2
    assert (data["n_up"], data["n_dn"]) == (1, 1)
    assert data["reference"] == [0, 1]
    assert "hubbard" in data["label"]

    manifest = read_json(str(work / "dimer.json") + ".manifest.json")
    assert manifest["command"][0] == "ccroots"
    assert manifest["command"][1] == "model"
    assert manifest["inputs"] == {}
    assert manifest["outputs"] == {
        str(work / "dimer.json"): sha256(work / "dimer.json")}
    assert set(manifest["versions"]) == {"ccroots", "numpy", "scipy", "python"}


def test_model_hubbard_requires_nelec(tmp_path):
    r = run("model", "--hubbard", "2,1,4", "-o", tmp_path / "m.json")
    assert r.returncode == 2
    assert "--nelec" in r.stderr


def test_model_from_integral_file_round_trips(tmp_path):
    original = build_pairing(2, 1.0, 0.5, 1)
    ints_path = tmp_path / "pairing.ints"
    save_integrals(original, ints_path)

    r = run("model", "--integrals", ints_path, "-o", tmp_path / "m.json")
    assert r.returncode == 0, r.stderr
    data = read_json(tmp_path / "m.json")
    want = model_to_dict(original)
    for key in ("n_spatial", "n_up", "n_dn", "core_energy", "reference",
                "h1", "h2"):
        assert data[key] == want[key]
    manifest = read_json(str(tmp_path / "m.json") + ".manifest.json")
    assert str(ints_path) in manifest["inputs"]


def test_model_reference_override(tmp_path):
    r = run("model", "--pairing", "2,1.0,0.5,1", "--reference", "2,3",
            "-o", tmp_path / "m.json")
    assert r.returncode == 0, r.stderr
    assert read_json(tmp_path / "m.json")["reference"] == [2, 3]


def test_model_duplicate_reference_orbital_rejected(tmp_path):
    r = run("model", "--pairing", "2,1.0,0.5,1", "--reference", "0,0",
            "-o", tmp_path / "m.json")
    assert r.returncode == 2
    assert "distinct" in r.stderr


@pytest.mark.parametrize("args", [
    ["--hubbard", "3,1,nan", "--nelec", "1,1"],
    ["--hubbard", "2,inf,4", "--nelec", "1,1"],
    ["--pairing", "2,1.0,nan,1"],
], ids=["hubbard-u-nan", "hubbard-t-inf", "pairing-g-nan"])
def test_model_non_finite_parameter_rejected(tmp_path, args):
    # NaN terms used to be pruned silently from the generated system, so
    # `solve` then reported roots of a different system with exit 0
    r = run("model", *args, "-o", tmp_path / "m.json")
    assert r.returncode == 2
    assert "not finite" in r.stderr
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("command", ["system", "kp", "verify"])
def test_model_file_with_non_finite_integral_is_malformed(work, tmp_path, command):
    data = read_json(work / "dimer.json")
    data["h1"][0][2] = float("inf")          # json writes the literal Infinity
    (tmp_path / "m.json").write_text(json.dumps(data))
    args = {"system": ["--rank", "full"], "kp": ["--rho", "2"],
            "verify": ["--solutions", work / "dimer_sol.json"]}[command]
    r = run(command, "--model", tmp_path / "m.json", *args, "-o", tmp_path / "out")
    assert r.returncode == 2
    assert "is malformed" in r.stderr and "h1 entry" in r.stderr
    assert "Traceback" not in r.stderr


# --- system ---------------------------------------------------------------------


def test_system_rank_full_matches_explicit_rank(work, tmp_path):
    r = run("system", "--model", work / "dimer.json", "--rank", "2",
            "-o", tmp_path / "sys.json")
    assert r.returncode == 0, r.stderr
    assert read_bytes(tmp_path / "sys.json") == read_bytes(work / "dimer_sys.json")
    assert "3 equations in 3 variables" in r.stdout

    data = read_json(work / "dimer_sys.json")
    assert data["metadata"]["kind"] == "cc"
    assert data["metadata"]["bounds"]["bezout_total"] == "64"
    assert data["metadata"]["bounds"]["bezout_sd"] == "36"
    assert data["metadata"]["bounds"]["quadratic"] == "16"


def test_system_quadratize_writes_quadratic_lift(work, tmp_path):
    r = run("system", "--model", work / "dimer.json", "--rank", "2",
            "--quadratize", "-o", tmp_path / "q.json")
    assert r.returncode == 0, r.stderr
    assert "4 equations in 4 variables" in r.stdout
    data = read_json(tmp_path / "q.json")
    assert data["metadata"]["kind"] == "cc-quadratized"
    system = PolynomialSystem.from_json(json.dumps(data))
    assert max(system.degrees()) <= 2


def test_system_quadratize_requires_rank_two(work, tmp_path):
    r = run("system", "--model", work / "dimer.json", "--rank", "1",
            "--quadratize", "-o", tmp_path / "q.json")
    assert r.returncode == 2
    assert "--rank 2" in r.stderr


def test_system_rank_beyond_graph_rejected(work, tmp_path):
    r = run("system", "--model", work / "dimer.json", "--rank", "3",
            "-o", tmp_path / "sys.json")
    assert r.returncode == 2


def test_system_missing_model_file(tmp_path):
    r = run("system", "--model", tmp_path / "nope.json",
            "-o", tmp_path / "sys.json")
    assert r.returncode == 2
    assert "cannot read" in r.stderr


# --- solve ----------------------------------------------------------------------


def test_solve_dimer_finds_all_three_roots(work):
    data = read_json(work / "dimer_sol.json")
    assert data["n_paths"] == 8
    assert data["bound_used"] == 8
    assert data["degrees"] == [2, 2, 2]
    assert data["seed"] == 0
    assert data["status_counts"] == {
        "converged": 3, "clustered": 0, "diverged": 5, "failed": 0}
    assert "workers" not in data["options"]
    assert "record_trace" not in data["options"]

    assert len(data["solutions"]) == 3
    energies = sorted(s["energy"][0] for s in data["solutions"])
    np.testing.assert_allclose(energies, DIMER_ENERGIES, atol=1e-8)
    for s in data["solutions"]:
        assert abs(s["energy"][1]) < 1e-8
        assert s["is_real"] is True
        assert s["multiplicity"] == 1
        assert s["residual"] < 1e-8
        assert len(s["x"]) == 3


def test_solve_manifest_accounts_for_every_file(work):
    manifest = read_json(str(work / "dimer_sol.json") + ".manifest.json")
    assert manifest["seed"] == 0
    assert manifest["command"][:2] == ["ccroots", "solve"]
    assert manifest["inputs"] == {
        str(work / "dimer_sys.json"): sha256(work / "dimer_sys.json")}
    assert manifest["outputs"] == {
        str(work / "dimer_sol.json"): sha256(work / "dimer_sol.json")}


def test_solve_rerun_is_byte_identical(work, tmp_path):
    args = ["solve", "--system", work / "dimer_sys.json", "--seed", "3",
            "--workers", "1", "-o", tmp_path / "sol.json"]
    assert run(*args).returncode == 0
    first = read_bytes(tmp_path / "sol.json")
    first_manifest = read_json(str(tmp_path / "sol.json") + ".manifest.json")

    assert run(*args).returncode == 0
    assert read_bytes(tmp_path / "sol.json") == first
    second_manifest = read_json(str(tmp_path / "sol.json") + ".manifest.json")
    first_manifest.pop("timestamp")
    second_manifest.pop("timestamp")
    assert first_manifest == second_manifest


def test_system_and_solve_are_byte_identical_across_hash_seeds(work, tmp_path):
    # set and dict iteration order follow PYTHONHASHSEED; no output may
    for seed in ("0", "12345"):
        out = tmp_path / seed
        for args in (["system", "--model", work / "dimer.json", "--rank", "full",
                      "-o", out / "sys.json"],
                     ["solve", "--system", out / "sys.json", "--seed", "3",
                      "--workers", "1", "-o", out / "sol.json"]):
            r = run(*args, env={"PYTHONHASHSEED": seed})
            assert r.returncode == 0, r.stderr
    for name in ("sys.json", "sol.json"):
        assert read_bytes(tmp_path / "0" / name) == read_bytes(tmp_path / "12345" / name)


def test_solve_worker_count_does_not_change_output(work, tmp_path):
    r = run("solve", "--system", work / "dimer_sys.json", "--workers", "3",
            "-o", tmp_path / "flag.json")
    assert r.returncode == 0, r.stderr
    assert read_bytes(tmp_path / "flag.json") == read_bytes(work / "dimer_sol.json")


def test_solve_trace_dir_writes_one_csv_per_path(work, tmp_path):
    r = run("solve", "--system", work / "dimer_sys.json", "--workers", "1",
            "--trace-dir", tmp_path / "traces", "-o", tmp_path / "sol.json")
    assert r.returncode == 0, r.stderr

    names = sorted(os.listdir(tmp_path / "traces"))
    assert names == [f"path_{k:04d}.csv" for k in range(8)]
    for name in names:
        with open(tmp_path / "traces" / name) as fh:
            rows = fh.read().splitlines()
        assert rows[0] == "lambda,re(x0),im(x0),re(x1),im(x1),re(x2),im(x2)"
        lams = [float(row.split(",")[0]) for row in rows[1:]]
        assert len(lams) >= 2
        assert lams[0] == 1.0
        assert all(a > b for a, b in zip(lams, lams[1:]))

    manifest = read_json(str(tmp_path / "sol.json") + ".manifest.json")
    assert len(manifest["outputs"]) == 9  # solutions file + 8 traces


def test_trace_and_trajectory_csv_cells_are_plain_numbers(work, kp_out, tmp_path):
    # numeric columns must parse with float(), the energy columns with
    # complex(); a numpy scalar repr such as "np.float64(0.1)" parses with
    # neither
    r = run("solve", "--system", work / "dimer_sys.json", "--workers", "1",
            "--trace-dir", tmp_path / "traces", "-o", tmp_path / "sol.json")
    assert r.returncode == 0, r.stderr
    paths = [kp_out / "base.trajectory.csv"] + sorted((tmp_path / "traces").iterdir())
    for path in paths:
        with open(path, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert rows
        for row in rows:
            assert len(row) == len(header)
            for name, cell in zip(header, row):
                (complex if name.startswith("energy_") else float)(cell)


def test_solve_no_converged_path_exits_numerical(tmp_path):
    # z^2 + 1e10: both roots far outside the tracker's divergence radius
    system = PolynomialSystem([Polynomial({((0, 2),): 1.0, (): 1e10})], ["z"])
    (tmp_path / "sys.json").write_text(system.to_json() + "\n")
    r = run("solve", "--system", tmp_path / "sys.json",
            "-o", tmp_path / "sol.json")
    assert r.returncode == 4
    assert "no path converged" in r.stderr
    assert read_json(tmp_path / "sol.json")["solutions"] == []


def test_solve_path_budget_exit_capability(tmp_path):
    # 2^21 start roots exceed the million-path budget
    n = 21
    polys = [Polynomial({((k, 2),): 1.0, (): -1.0}) for k in range(n)]
    system = PolynomialSystem(polys, [f"z{k}" for k in range(n)])
    (tmp_path / "sys.json").write_text(system.to_json() + "\n")
    r = run("solve", "--system", tmp_path / "sys.json",
            "-o", tmp_path / "sol.json")
    assert r.returncode == 3
    assert "budget" in r.stderr


def test_solve_missing_system_file(tmp_path):
    r = run("solve", "--system", tmp_path / "nope.json",
            "-o", tmp_path / "sol.json")
    assert r.returncode == 2
    assert "cannot read" in r.stderr


@pytest.mark.parametrize("text", ["{}", "not json at all"])
def test_solve_malformed_system_file(tmp_path, text):
    (tmp_path / "sys.json").write_text(text)
    r = run("solve", "--system", tmp_path / "sys.json",
            "-o", tmp_path / "sol.json")
    assert r.returncode == 2
    assert "malformed" in r.stderr


@pytest.mark.parametrize("exponent", [1.5, -1])
def test_solve_system_file_bad_exponent_is_malformed(tmp_path, exponent):
    # x^1.5 - 4 used to be read as x - 4, and x^-1 as x^dmax
    (tmp_path / "sys.json").write_text(json.dumps(
        {"variables": ["x"], "equations": [[[1.0, 0.0, {"x": exponent}],
                                            [-4.0, 0.0, {}]]]}))
    r = run("solve", "--system", tmp_path / "sys.json",
            "-o", tmp_path / "sol.json")
    assert r.returncode == 2
    assert "malformed" in r.stderr
    assert not (tmp_path / "sol.json").exists()


@pytest.mark.parametrize("equation, energy", [
    ([[float("nan"), 0.0, {"x": 2}], [-4.0, 0.0, {}]], None),
    ([[1.0, 0.0, {"x": 2}], [-4.0, float("inf"), {}]], None),
    ([[1.0, 0.0, {"x": 2}], [-4.0, 0.0, {}]], [[float("-inf"), 0.0, {"x": 1}]]),
], ids=["nan", "inf", "energy-inf"])
def test_solve_non_finite_coefficient_is_malformed(tmp_path, equation, energy):
    # a NaN coefficient used to be tracked through every path, exit 4
    data = {"variables": ["x"], "equations": [equation]}
    if energy is not None:
        data["metadata"] = {"energy": energy}
    (tmp_path / "sys.json").write_text(json.dumps(data))
    r = run("solve", "--system", tmp_path / "sys.json", "-o", tmp_path / "sol.json")
    assert r.returncode == 2
    assert "is malformed" in r.stderr and "non-finite coefficient" in r.stderr
    assert not (tmp_path / "sol.json").exists()


def test_solve_empty_system_is_malformed(tmp_path):
    (tmp_path / "sys.json").write_text(json.dumps({"variables": [], "equations": []}))
    r = run("solve", "--system", tmp_path / "sys.json", "-o", tmp_path / "sol.json")
    assert r.returncode == 2
    assert "system has no variables" in r.stderr
    assert "Traceback" not in r.stderr
    assert not (tmp_path / "sol.json").exists()


def test_solve_unknown_energy_variable_is_malformed(tmp_path):
    # the energy is decoded before any path is tracked, so the run fails fast
    # with a usage error instead of a traceback after the tracking
    (tmp_path / "sys.json").write_text(json.dumps(
        {"variables": ["x"], "equations": [[[1.0, 0.0, {"x": 2}], [-4.0, 0.0, {}]]],
         "metadata": {"energy": [[1.0, 0.0, {"y": 1}]]}}))
    r = run("solve", "--system", tmp_path / "sys.json",
            "-o", tmp_path / "sol.json")
    assert r.returncode == 2
    assert "is malformed" in r.stderr and "'y'" in r.stderr
    assert "Traceback" not in r.stderr
    assert not (tmp_path / "sol.json").exists()


def test_solve_seed_must_be_non_negative(work, tmp_path):
    r = run("solve", "--system", work / "dimer_sys.json", "--seed", "-1",
            "-o", tmp_path / "sol.json")
    assert r.returncode == 2
    assert "--seed must be a non-negative integer" in r.stderr
    assert not (tmp_path / "sol.json").exists()


@pytest.mark.parametrize("command", ["solve", "kp"])
def test_workers_below_one_is_usage_error(work, tmp_path, command):
    # --workers is ignored, but it is still validated
    args = {"solve": ["--system", work / "dimer_sys.json"],
            "kp": ["--model", work / "pairing42.json", "--rho", "2"]}[command]
    r = run(command, *args, "--workers", "0", "-o", tmp_path / "out")
    assert r.returncode == 2
    assert "worker count must be >= 1" in r.stderr


# --- kp -------------------------------------------------------------------------


def test_kp_debug_log_lines_only_when_asked(work, kp_out, tmp_path):
    # kp_out ran at the default level: its stderr was empty.  -v shows one
    # debug line per accepted step and changes no output byte.
    quiet = run("kp", "--model", work / "pairing42.json", "--rho", "2",
                "-o", tmp_path / "quiet")
    loud = run("-v", "kp", "--model", work / "pairing42.json", "--rho", "2",
               "-o", tmp_path / "base")
    assert quiet.returncode == loud.returncode == 0
    assert quiet.stderr == ""
    lines = loud.stderr.splitlines()
    assert len(lines) == 13 and all(
        line.startswith("DEBUG ccroots.kp: lam=") for line in lines)
    assert "lam=1.000000 displacement from start" in lines[-1]
    for name in ("base.bundle.json", "base.trajectory.csv"):
        assert read_bytes(tmp_path / name) == read_bytes(kp_out / name)
    info = run("--log-level", "info", "kp", "--model", work / "pairing42.json",
               "--rho", "2", "-o", tmp_path / "info")
    assert info.returncode == 0 and info.stderr == ""


def test_log_level_must_be_a_known_level(work, tmp_path):
    r = run("--log-level", "loud", "kp", "--model", work / "pairing42.json",
            "--rho", "2", "-o", tmp_path / "kp")
    assert r.returncode == 2
    assert "invalid choice" in r.stderr


def test_kp_reaches_full_theory_and_writes_bundle(kp_out):
    report = read_json(kp_out / "base.bundle.json")
    assert report["endpoint_status"] == "reached_full"
    assert report["rho"] == 2
    assert (report["n_low"], report["n_high"]) == (26, 9)
    assert report["state"] == 0
    assert report["lambda_reached"] == 1.0

    endpoint = report["endpoint"]
    assert abs(endpoint["energy"][0] - PAIRING_E_FULL) < 1e-8
    assert abs(endpoint["energy"][1]) < 1e-10
    assert endpoint["residual"] < 1e-8
    assert endpoint["degenerate"] is False
    assert endpoint["jacobian_sigma_min"] > 1e-6

    bundle = report["bundle"]
    assert abs(bundle["delta_e"][0] - PAIRING_DELTA_E) < 1e-8
    assert bundle["orthogonal"] is False
    assert bundle["t_perp_norm"] < 1e-2


def test_kp_trajectory_csv_layout(kp_out):
    with open(kp_out / "base.trajectory.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    assert header[0] == "lambda"
    assert header[-3:] == ["residual_norm", "energy_low", "energy_full"]
    assert len(header) == 1 + 2 * 35 + 3  # full graph has 35 amplitudes
    first = rows[1]
    last = rows[-1]
    assert float(first[0]) == 0.0
    assert float(last[0]) == 1.0
    assert abs(complex(last[-1]) - PAIRING_E_FULL) < 1e-8

    manifest = read_json(str(kp_out / "base") + ".manifest.json")
    assert set(manifest["outputs"]) == {
        str(kp_out / "base.trajectory.csv"),
        str(kp_out / "base.bundle.json"),
    }


def test_kp_boundary_rank_is_already_full(work, tmp_path):
    r = run("kp", "--model", work / "pairing42.json", "--rho", "4",
            "--workers", "1", "-o", tmp_path / "b")
    assert r.returncode == 0, r.stderr
    report = read_json(tmp_path / "b.bundle.json")
    assert report["n_high"] == 0
    assert abs(complex(*report["bundle"]["delta_e"])) < 1e-10
    assert report["bundle"]["t_perp_norm"] < 1e-12


def test_kp_rho_below_two_rejected(work, tmp_path):
    r = run("kp", "--model", work / "pairing42.json", "--rho", "1",
            "-o", tmp_path / "b")
    assert r.returncode == 2
    assert "--rho" in r.stderr


def test_kp_state_index_out_of_range(work, tmp_path):
    r = run("kp", "--model", work / "dimer.json", "--rho", "2",
            "--state", "5", "--workers", "1", "-o", tmp_path / "b")
    assert r.returncode == 2
    assert "out of range" in r.stderr


def test_kp_state_file_reproduces_run(kp_out, work, tmp_path):
    report = read_json(kp_out / "base.bundle.json")
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps(report["lambda0_state"]))

    r = run("kp", "--model", work / "pairing42.json", "--rho", "2",
            "--state", state_path, "--workers", "1", "-o", tmp_path / "again")
    assert r.returncode == 0, r.stderr
    again = read_json(tmp_path / "again.bundle.json")
    assert again["state"] == str(state_path)
    assert abs(complex(*again["endpoint"]["energy"])
               - complex(*report["endpoint"]["energy"])) < 1e-9


def test_kp_state_file_malformed(work, tmp_path):
    (tmp_path / "state.json").write_text('{"t": 3}')
    r = run("kp", "--model", work / "pairing42.json", "--rho", "2",
            "--state", tmp_path / "state.json", "-o", tmp_path / "b")
    assert r.returncode == 2
    assert "malformed" in r.stderr


@pytest.mark.parametrize("n_amplitudes", [1, 38])
def test_kp_state_file_wrong_length_rejected(work, tmp_path, n_amplitudes):
    # the full graph of pairing(4,1,0.33,2) has 35 amplitudes
    (tmp_path / "state.json").write_text(json.dumps({"t": [[0.0, 0.0]] * n_amplitudes}))
    r = run("kp", "--model", work / "pairing42.json", "--rho", "2",
            "--state", tmp_path / "state.json", "--workers", "1", "-o", tmp_path / "b")
    assert r.returncode == 2
    assert f"malformed: expected 35 amplitudes, got {n_amplitudes}" in r.stderr
    assert "Traceback" not in r.stderr
    assert not (tmp_path / "b.bundle.json").exists()


def test_kp_homotopy_starts_reach_every_state(work, tmp_path):
    # Newton from zero amplitudes lands on the dimer's E = 4 root; the
    # homotopy start list, sorted by energy, exposes the other two as well.
    r = run("kp", "--model", work / "dimer.json", "--rho", "2",
            "--workers", "1", "-o", tmp_path / "d0")
    assert r.returncode == 0, r.stderr
    e0 = complex(*read_json(tmp_path / "d0.bundle.json")["endpoint"]["energy"])
    assert abs(e0 - 4.0) < 1e-10

    for index, want in ((0, 2.0 - 2.0 * SQRT2), (2, 2.0 + 2.0 * SQRT2)):
        r = run("kp", "--model", work / "dimer.json", "--rho", "2",
                "--homotopy-starts", "--state", index, "--workers", "1",
                "-o", tmp_path / f"d{index}h")
        assert r.returncode == 0, r.stderr
        report = read_json(tmp_path / f"d{index}h.bundle.json")
        assert abs(complex(*report["endpoint"]["energy"]) - want) < 1e-8


def test_kp_homotopy_starts_path_budget_exit_capability(work, tmp_path):
    # the rank-2 pairing(4) system has about 2.5e14 total-degree start paths
    r = run("kp", "--model", work / "pairing42.json", "--rho", "2",
            "--homotopy-starts", "--workers", "1", "-o", tmp_path / "b")
    assert r.returncode == 3
    assert r.stderr.startswith("error:")
    assert "budget" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("extra", [[], ["--homotopy-starts"]], ids=["plain", "homotopy-starts"])
def test_kp_seed_must_be_non_negative(work, tmp_path, extra):
    r = run("kp", "--model", work / "dimer.json", "--rho", "2", *extra,
            "--seed", "-1", "--workers", "1", "-o", tmp_path / "b")
    assert r.returncode == 2
    assert "--seed must be a non-negative integer" in r.stderr
    assert "Traceback" not in r.stderr


# --- fractal --------------------------------------------------------------------


def test_fractal_cube_roots_image(tmp_path):
    args = ["fractal", "--poly", "z^3-1", "--res", "41",
            "--window", "-1.5,1.5,-1.5,1.5"]
    r = run(*args, "-o", tmp_path / "a.ppm")
    assert r.returncode == 0, r.stderr
    assert "3 roots" in r.stdout

    data = read_bytes(tmp_path / "a.ppm")
    header = b"P6\n41 41\n255\n"
    assert data.startswith(header)
    assert len(data) == len(header) + 41 * 41 * 3

    r = run(*args, "-o", tmp_path / "b.ppm")
    assert r.returncode == 0
    assert read_bytes(tmp_path / "b.ppm") == data


def test_fractal_parse_error_names_the_token(tmp_path):
    r = run("fractal", "--poly", "z^3-q", "-o", tmp_path / "a.ppm")
    assert r.returncode == 2
    assert "q" in r.stderr


def test_fractal_system_slice(work, tmp_path):
    r = run("fractal", "--system", work / "dimer_sys.json", "--slice", "1,1,1",
            "--res", "33", "-o", tmp_path / "s.ppm")
    assert r.returncode == 0, r.stderr
    assert "2 roots" in r.stdout
    assert read_bytes(tmp_path / "s.ppm").startswith(b"P6\n33 33\n255\n")


def test_fractal_system_requires_slice(work, tmp_path):
    r = run("fractal", "--system", work / "dimer_sys.json",
            "-o", tmp_path / "s.ppm")
    assert r.returncode == 2
    assert "--slice" in r.stderr


def test_fractal_system_file_bad_exponent_is_malformed(tmp_path):
    (tmp_path / "sys.json").write_text(json.dumps(
        {"variables": ["x"], "equations": [[[1.0, 0.0, {"x": -1}],
                                            [-4.0, 0.0, {}]]]}))
    r = run("fractal", "--system", tmp_path / "sys.json", "--slice", "1",
            "--res", "4", "-o", tmp_path / "s.ppm")
    assert r.returncode == 2
    assert "malformed" in r.stderr
    assert not (tmp_path / "s.ppm").exists()


def test_fractal_res_must_be_positive(tmp_path):
    r = run("fractal", "--poly", "z^2-1", "--res", "0", "-o", tmp_path / "a.ppm")
    assert r.returncode == 2


@pytest.mark.parametrize("max_iters", ["0", "-3"])
def test_fractal_max_iters_must_be_positive(tmp_path, max_iters):
    r = run("fractal", "--poly", "z^2-1", "--res", "8", "--max-iters", max_iters,
            "-o", tmp_path / "a.ppm")
    assert r.returncode == 2
    assert "--max-iters" in r.stderr
    assert not (tmp_path / "a.ppm").exists()


def test_fractal_max_iters_beyond_int32_is_a_usage_error(tmp_path):
    r = run("fractal", "--poly", "z^2-1", "--res", "8", "--max-iters", "3000000000",
            "-o", tmp_path / "a.ppm")
    assert r.returncode == 2
    assert r.stderr.startswith("error:") and "max_iters" in r.stderr
    assert "Traceback" not in r.stderr
    assert not (tmp_path / "a.ppm").exists()


def test_fractal_window_needs_four_values(tmp_path):
    r = run("fractal", "--poly", "z^2-1", "--window", "1,2,3",
            "-o", tmp_path / "a.ppm")
    assert r.returncode == 2
    assert "--window" in r.stderr


@pytest.mark.parametrize("window", ["1,1,-1,1", "2,-2,-2,2", "-1,inf,-1,1"])
def test_fractal_window_must_be_finite_and_increasing(tmp_path, window):
    r = run("fractal", "--poly", "z^2-1", "--res", "8", "--window", window,
            "-o", tmp_path / "a.ppm")
    assert r.returncode == 2
    assert "window" in r.stderr
    assert not (tmp_path / "a.ppm").exists()


def test_fractal_vanishing_top_coefficient_is_not_a_degree(tmp_path):
    r = run("fractal", "--poly", "z-z+1", "--res", "8", "-o", tmp_path / "a.ppm")
    assert r.returncode == 2
    assert "degree >= 1" in r.stderr
    assert not (tmp_path / "a.ppm").exists()


@pytest.mark.parametrize("source", [["--poly", "1e999*z^2-1"],
                                    ["--slice=nan,1,1"],
                                    ["--slice=1,1,1|0,inf,0"]])
def test_fractal_rejects_non_finite_inputs(work, tmp_path, source):
    if source[0] != "--poly":
        source = ["--system", work / "dimer_sys.json"] + source
    r = run("fractal", *source, "--res", "4", "-o", tmp_path / "a.ppm")
    assert r.returncode == 2
    assert "finite" in r.stderr
    assert "Warning" not in r.stderr
    assert not (tmp_path / "a.ppm").exists()



@pytest.mark.parametrize("poly", ["z^300-1", "1e-300*z^2+1e300"])
def test_fractal_overflowing_newton_steps_print_no_warning(tmp_path, poly):
    r = run("fractal", "--poly", poly, "--res", "16", "-o", tmp_path / "a.ppm")
    assert r.returncode == 0, r.stderr
    assert "RuntimeWarning" not in r.stderr
    assert read_bytes(tmp_path / "a.ppm").startswith(b"P6\n16 16\n255\n")

def test_fractal_pixel_budget_is_a_capability_error(tmp_path):
    # rejected before any per-pixel array is allocated
    r = run("fractal", "--poly", "z^2-1", "--res", "2049", "-o", tmp_path / "a.ppm")
    assert r.returncode == 3
    assert "budget" in r.stderr
    assert not (tmp_path / "a.ppm").exists()


# --- verify ---------------------------------------------------------------------


def test_verify_dimer_matches_every_state(work, tmp_path):
    r = run("verify", "--model", work / "dimer.json",
            "--solutions", work / "dimer_sol.json", "-o", tmp_path / "rep.json")
    assert r.returncode == 0, r.stderr
    assert "matched 3/3 solutions to 3 normalizable eigenstates" in r.stdout

    report = read_json(tmp_path / "rep.json")
    assert report["fci_dimension"] == 4
    assert report["all_matched"] is True
    assert report["unmatched_solutions"] == []
    assert report["unmatched_eigenstates"] == []
    assert len(report["matched"]) == 3
    assert all(m["distance"] < 1e-8 for m in report["matched"])
    energies = sorted(s["energy"] for s in report["normalizable_states"])
    np.testing.assert_allclose(energies, DIMER_ENERGIES, atol=1e-12)


def test_verify_spurious_roots_reported_not_failed(work, rank1, tmp_path):
    r = run("verify", "--model", work / "dimer.json",
            "--solutions", rank1 / "sol.json", "-o", tmp_path / "rep.json")
    assert r.returncode == 0, r.stderr

    report = read_json(tmp_path / "rep.json")
    assert report["all_matched"] is False
    assert report["matched"] == []
    assert len(report["unmatched_solutions"]) == 4
    assert len(report["unmatched_eigenstates"]) == 3


def test_verify_loose_tolerance_matches_greedily(work, rank1, tmp_path):
    # nearest-pair matching at tol 1.0: 2*sqrt(5) -> 2 + 2*sqrt(2) (0.356)
    # and one 0 -> 2 - 2*sqrt(2) (0.828); E = 4 stays unmatched
    r = run("verify", "--model", work / "dimer.json",
            "--solutions", rank1 / "sol.json", "--tol", "1.0",
            "-o", tmp_path / "rep.json")
    assert r.returncode == 0, r.stderr

    report = read_json(tmp_path / "rep.json")
    assert report["all_matched"] is False
    assert len(report["matched"]) == 2
    assert all(m["distance"] <= 1.0 for m in report["matched"])
    assert len(report["unmatched_solutions"]) == 2
    assert len(report["unmatched_eigenstates"]) == 1


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_verify_tolerance_must_be_positive_and_finite(work, tmp_path, tol):
    r = run("verify", "--model", work / "dimer.json",
            "--solutions", work / "dimer_sol.json", "--tol", tol,
            "-o", tmp_path / "rep.json")
    assert r.returncode == 2
    assert "--tol" in r.stderr
    assert not (tmp_path / "rep.json").exists()


def test_verify_sector_dimension_cap(work, tmp_path):
    r = run("model", "--hubbard", "9,1,4", "--nelec", "5,4",
            "-o", tmp_path / "big.json")
    assert r.returncode == 0, r.stderr
    r = run("verify", "--model", tmp_path / "big.json",
            "--solutions", work / "dimer_sol.json", "-o", tmp_path / "rep.json")
    assert r.returncode == 3
    assert "dimension" in r.stderr


def test_verify_solutions_without_energy_rejected(work, tmp_path):
    (tmp_path / "sol.json").write_text(
        json.dumps({"solutions": [{"x": [[0.0, 0.0]], "energy": None}]}))
    r = run("verify", "--model", work / "dimer.json",
            "--solutions", tmp_path / "sol.json", "-o", tmp_path / "rep.json")
    assert r.returncode == 2
    assert "no energy" in r.stderr


def test_verify_non_object_solution_entry_is_malformed(work, tmp_path):
    (tmp_path / "sol.json").write_text(json.dumps({"solutions": [[1, 2]]}))
    r = run("verify", "--model", work / "dimer.json",
            "--solutions", tmp_path / "sol.json", "-o", tmp_path / "rep.json")
    assert r.returncode == 2
    assert "malformed" in r.stderr
    assert "Traceback" not in r.stderr
