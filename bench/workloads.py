"""The four seeded workloads: derived parameters, CLI chains, output checks.

Every workload draws its physical parameters (and, where it solves, the
homotopy seed) from the workload seed.  The program receives only the CLI
arguments and input files generated here.  A pass runs its chain inside its
own directory, so the manifests of two passes differ only in their
timestamps; inputs written at set-up are reached as ``../inputs/...``.

The checks come from the exact oracle (``ccroots.oracle.fci_solve``), from
the independent ``expm`` path of ``Workspace.residual_vector`` and from the
analytic roots of ``z^n - c``, never from a stored snapshot.  A check returns
the number of failed operations and a list of problems; any problem fails
the run.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

INPUTS = "../inputs"
_WORKLOAD_IDS = {"allroots-hubbard3": 1, "kp-pairing": 2,
                 "basins-slice": 3, "generate-sd": 4}
ENERGY_TOL = 1e-8       # root energy against the FCI eigenvalue
GENERATE_RTOL = 1e-10   # generated polynomial against the expm residual


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([_WORKLOAD_IDS[name], seed])


def _read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _num(x: float, digits: int = 3) -> str:
    return f"{x:.{digits}f}"


def _fci_energies(model_path: Path, normalizable_only: bool):
    from ccroots.model import model_from_dict
    from ccroots.oracle import fci_solve, intermediately_normalizable
    fci = fci_solve(model_from_dict(_read_json(model_path)))
    return np.array([fci.energies[k] for k in range(fci.dim)
                     if not normalizable_only or intermediately_normalizable(fci, k)])


class Workload:
    """One workload at one seed; `tiny` selects the self-test instance."""

    name = ""
    ops_cmd = ""            # CLI command whose wall time the ops are divided by
    ops_unit = ""

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny
        self.params = self.derive(_rng(self.name, seed))

    def derive(self, rng) -> dict:
        raise NotImplementedError

    def prepare(self, inputs: Path, cli_main) -> None:
        """Write the input files every pass starts from."""

    def chain(self) -> list:
        raise NotImplementedError

    def ops_per_pass(self) -> int:
        raise NotImplementedError

    def check(self, pass_dir: Path) -> tuple:
        raise NotImplementedError

    def models(self) -> list:
        """(model file, excitation rank) pairs the chain builds systems from."""
        return []

    def systems(self) -> list:
        """System files the chain writes or reads."""
        return []


class AllRootsHubbard3(Workload):
    """Every root of the full-rank Hubbard L=3 (1,1) system, then verify."""

    name = "allroots-hubbard3"
    ops_cmd = "solve"
    ops_unit = "paths"

    def derive(self, rng):
        return {"sites": 2 if self.tiny else 3, "U": _num(rng.uniform(2.0, 6.0)),
                "solve_seed": int(rng.integers(0, 2**31 - 1))}

    def chain(self):
        p = self.params
        return [
            ["model", "--hubbard", f"{p['sites']},1,{p['U']}", "--nelec", "1,1",
             "-o", "model.json"],
            ["system", "--model", "model.json", "--rank", "full", "-o", "system.json"],
            ["solve", "--system", "system.json", "--seed", str(p["solve_seed"]),
             "--workers", "1", "-o", "sol.json"],
            ["verify", "--model", "model.json", "--solutions", "sol.json",
             "-o", "report.json"],
        ]

    def ops_per_pass(self):
        return 8 if self.tiny else 256     # product of the equation degrees

    def models(self):
        return [("model.json", "full")]

    def systems(self):
        return ["system.json"]

    def check(self, pass_dir):
        sol = _read_json(pass_dir / "sol.json")
        report = _read_json(pass_dir / "report.json")
        counts = sol["status_counts"]
        problems = []
        if sol["n_paths"] != self.ops_per_pass() or sum(counts.values()) != sol["n_paths"]:
            problems.append(f"status counts {counts} do not sum to "
                            f"{self.ops_per_pass()} paths")
        mult = sum(s["multiplicity"] for s in sol["solutions"])
        if mult != counts["converged"] + counts["clustered"]:
            problems.append(f"multiplicities sum to {mult}, converged+clustered "
                            f"paths to {counts['converged'] + counts['clustered']}")
        if not report["all_matched"]:
            problems.append("verify did not match every root to an eigenstate")
        exact = np.sort(_fci_energies(pass_dir / "model.json", True))
        found = np.sort([complex(*s["energy"]).real for s in sol["solutions"]])
        imag = max((abs(s["energy"][1]) for s in sol["solutions"]), default=0.0)
        if len(found) != len(exact) or imag > ENERGY_TOL or (
                len(found) and np.abs(found - exact).max() > ENERGY_TOL):
            problems.append(f"{len(found)} root energies against {len(exact)} "
                            "normalizable FCI eigenvalues do not agree")
        return counts["failed"], problems


class KPPairing(Workload):
    """Truncation homotopy kp on pairing(N,1,g,2) for N in {4,5}, rho in {2,3}."""

    name = "kp-pairing"
    ops_cmd = "kp"
    ops_unit = "trajectories"

    def derive(self, rng):
        return {"g": _num(rng.uniform(0.2, 0.6))}

    def combos(self):
        return [(4, 2)] if self.tiny else [(4, 2), (4, 3), (5, 2), (5, 3)]

    def chain(self):
        steps = []
        for n in sorted({n for n, _ in self.combos()}):
            steps.append(["model", "--pairing", f"{n},1,{self.params['g']},2",
                          "-o", f"pairing{n}.json"])
            for m, rho in self.combos():
                if m == n:
                    steps.append(["kp", "--model", f"pairing{n}.json", "--rho", str(rho),
                                  "--state", "0", "--workers", "1",
                                  "-o", f"kp{n}_{rho}"])
        return steps

    def ops_per_pass(self):
        return len(self.combos())

    def models(self):
        return [(f"pairing{n}.json", "full") for n in sorted({n for n, _ in self.combos()})]

    def check(self, pass_dir):
        failed, problems = 0, []
        ground = {}
        for n, rho in self.combos():
            if n not in ground:
                ground[n] = _fci_energies(pass_dir / f"pairing{n}.json", False).min()
            bundle = _read_json(pass_dir / f"kp{n}_{rho}.bundle.json")
            ok = bundle["endpoint_status"] == "reached_full"
            if ok:
                e = complex(*bundle["endpoint"]["energy"])
                ok = abs(e - ground[n]) <= ENERGY_TOL
            if not ok:
                failed += 1
                problems.append(f"kp N={n} rho={rho} did not reach the FCI ground state")
        return failed, problems


def _ppm_pixels(path: Path) -> np.ndarray:
    data = path.read_bytes()
    parts = data.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P6" or parts[2] != b"255":
        raise ValueError(f"{path.name} is not a binary PPM")
    nx, ny = map(int, parts[1].split())
    pix = np.frombuffer(parts[3], dtype=np.uint8)
    if pix.size != nx * ny * 3:
        raise ValueError(f"{path.name} holds {pix.size} bytes for {nx}x{ny} pixels")
    return pix.reshape(ny, nx, 3)


class BasinsSlice(Workload):
    """Newton basins: four slices of the Hubbard L=3 system, one z^n - c scan."""

    name = "basins-slice"
    ops_cmd = "fractal"
    ops_unit = "pixels"
    n_lines = 4
    window = (-2.0, 2.0, -2.0, 2.0)

    def derive(self, rng):
        n_vars = 3 if self.tiny else 8
        lines = []
        for _ in range(self.n_lines):
            direction = rng.normal(size=n_vars)
            base = 0.1 * rng.normal(size=n_vars)
            lines.append(",".join(_num(v, 2) for v in direction) + "|"
                         + ",".join(_num(v, 2) for v in base))
        return {"sites": 2 if self.tiny else 3, "U": _num(rng.uniform(2.0, 6.0)),
                "slices": lines, "slice_res": 6 if self.tiny else 48,
                "degree": int(rng.integers(3, 5)),
                "c_angle": _num(rng.uniform(0.0, 2.0 * math.pi)),
                "poly_res": 16 if self.tiny else 600, "poly_max_iters": 128}

    def prepare(self, inputs, cli_main):
        p = self.params
        model, system = str(inputs / "model.json"), str(inputs / "system.json")
        for argv in (["model", "--hubbard", f"{p['sites']},1,{p['U']}",
                      "--nelec", "1,1", "-o", model],
                     ["system", "--model", model, "--rank", "full", "-o", system]):
            if cli_main(argv) != 0:
                raise RuntimeError(f"set-up command failed: {argv}")

    def constant(self) -> complex:
        a = float(self.params["c_angle"])
        return complex(float(_num(math.cos(a), 6)), float(_num(math.sin(a), 6)))

    def poly_text(self) -> str:
        c = self.constant()
        return f"z^{self.params['degree']} - ({c.real}{c.imag:+}j)"

    def chain(self):
        p = self.params
        # "--slice=" keeps a line that starts with a minus sign from being
        # read as an option
        steps = [["fractal", "--system", f"{INPUTS}/system.json", f"--slice={line}",
                  "--res", str(p["slice_res"]), "-o", f"slice{k}.ppm"]
                 for k, line in enumerate(p["slices"])]
        steps.append(["fractal", "--poly", self.poly_text(), "--res", str(p["poly_res"]),
                      "--max-iters", str(p["poly_max_iters"]), "-o", "poly.ppm"])
        return steps

    def ops_per_pass(self):
        return self.n_lines * self.params["slice_res"] ** 2 + self.params["poly_res"] ** 2

    def systems(self):
        return [f"{INPUTS}/system.json"]

    def analytic_root_pixels(self) -> set:
        n, res = self.params["degree"], self.params["poly_res"]
        re_min, re_max, im_min, im_max = self.window
        out = set()
        for k in range(n):
            z = self.constant() ** (1.0 / n) * complex(math.cos(2 * math.pi * k / n),
                                                       math.sin(2 * math.pi * k / n))
            col = min(int((z.real - re_min) / (re_max - re_min) * res), res - 1)
            row = min(int((im_max - z.imag) / (im_max - im_min) * res), res - 1)
            out.add((row, col))
        return out

    def check(self, pass_dir):
        failed, problems = 0, []
        for name in [f"slice{k}.ppm" for k in range(self.n_lines)] + ["poly.ppm"]:
            pix = _ppm_pixels(pass_dir / name)
            failed += int((pix.max(axis=2) == 0).sum())     # black: not converged
        white = _ppm_pixels(pass_dir / "poly.ppm").min(axis=2) == 255
        marked = {(int(r), int(c)) for r, c in zip(*np.nonzero(white))}
        if marked != self.analytic_root_pixels():
            problems.append(f"poly.ppm marks roots at pixels {sorted(marked)}, the "
                            f"analytic roots lie at {sorted(self.analytic_root_pixels())}")
        return failed, problems


class GenerateSD(Workload):
    """Rank-2 systems of pairing(5,1,g,2) and hubbard(5,1,U,2,2), plus the
    quadratized Hubbard system."""

    name = "generate-sd"
    ops_cmd = "system"
    ops_unit = "systems"

    def derive(self, rng):
        return {"g": _num(rng.uniform(0.2, 0.6)), "U": _num(rng.uniform(2.0, 6.0)),
                "t_seed": int(rng.integers(0, 2**31 - 1))}

    def chain(self):
        p = self.params
        pairing = f"3,1,{p['g']},1" if self.tiny else f"5,1,{p['g']},2"
        hubbard, nelec = ("2,1", "1,1") if self.tiny else ("5,1", "2,2")
        return [
            ["model", "--pairing", pairing, "-o", "pairing.json"],
            ["system", "--model", "pairing.json", "--rank", "2", "-o", "pairing_sd.json"],
            ["model", "--hubbard", f"{hubbard},{p['U']}", "--nelec", nelec,
             "-o", "hubbard.json"],
            ["system", "--model", "hubbard.json", "--rank", "2", "-o", "hubbard_sd.json"],
            ["system", "--model", "hubbard.json", "--rank", "2", "--quadratize",
             "-o", "hubbard_q.json"],
        ]

    def ops_per_pass(self):
        return 3

    def models(self):
        return [("pairing.json", 2), ("hubbard.json", 2)]

    def systems(self):
        return ["pairing_sd.json", "hubbard_sd.json", "hubbard_q.json"]

    def check(self, pass_dir):
        from ccroots.ccpoly import PolynomialSystem, Workspace
        from ccroots.excitations import build_graph
        from ccroots.model import model_from_dict

        rng = np.random.default_rng(self.params["t_seed"])
        failed, problems = 0, []
        for model_file, system_file in (("pairing.json", "pairing_sd.json"),
                                        ("hubbard.json", "hubbard_sd.json"),
                                        ("hubbard.json", "hubbard_q.json")):
            model = model_from_dict(_read_json(pass_dir / model_file))
            ws = Workspace(model, build_graph(model, 2))
            system = PolynomialSystem.from_json((pass_dir / system_file).read_text())
            k = len(ws.graph)
            t = 0.1 * (rng.normal(size=k) + 1j * rng.normal(size=k))
            if system.metadata.get("kind") == "cc-quadratized":
                # <Phi_mu| (H - E) e^T |ref> at the lift y = pair minors of t,
                # followed by the defining equations, which vanish there
                u = ws.expm_apply(ws.t_operator(t), ws.e0)
                hu = ws.H @ u
                ref = np.concatenate([(hu - hu[ws.ref_idx] * u)[ws.target_idx],
                                      np.zeros(system.n_vars - k)])
                x = _lift(system, dict(zip(ws.graph.names(), t)))
            else:
                ref = ws.residual_vector(t, path="expm")[ws.target_idx]
                x = t
            err = np.abs(system.evaluate(x) - ref).max() / max(1.0, np.abs(ref).max())
            if not err <= GENERATE_RTOL:
                failed += 1
                problems.append(f"{system_file}: relative error {err:.2e} against "
                                "the expm residuals")
        return failed, problems


def _lift(system, t_by_name: dict) -> np.ndarray:
    """Values of a quadratized system's variables: amplitudes, then each pair
    auxiliary y[i,j->a,b] = t[i->a] t[j->b] - t[i->b] t[j->a]."""
    aux = system.metadata["aux"]
    out = []
    for name in system.var_names:
        if name in t_by_name:
            out.append(t_by_name[name])
            continue
        holes, parts = aux[name][2:-1].split("->")
        (i, j), (a, b) = holes.split(","), parts.split(",")
        # a pairing that does not conserve spin is no amplitude: it counts 0
        ia, jb, ib, ja = (t_by_name.get(f"t[{h}->{p}]", 0.0)
                          for h, p in ((i, a), (j, b), (i, b), (j, a)))
        out.append(ia * jb - ib * ja)
    return np.array(out, dtype=complex)


WORKLOADS = {cls.name: cls for cls in (AllRootsHubbard3, KPPairing,
                                       BasinsSlice, GenerateSD)}
