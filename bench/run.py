"""Benchmark of the ccroots command line: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  Each workload runs in its own
worker process (bench/worker.py), which calls ``ccroots.cli.main(argv)``
in-process, one CLI chain per pass, for about S seconds (at least one
pass).  With ``--trace 0`` the run reports the end-to-end metrics; set-up is
repeated in separate processes and reported as a median.  With
``--trace 1`` it reports the per-layer metrics of one traced pass and writes
the spans to ``.bench_work/traces/``.  Human-readable lines come first; the
last line of standard output is the JSON result.  The exit code is 0 when
every output check passed, 1 when one failed or a worker died, 2 when the
package sources are missing.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import PER_LAYER
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
DEFAULT_SEED = 1
HELD_OUT_SEED = 9001        # not used while writing the benchmark or a claim
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0
END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "ops_per_s": "ops/s",
                    "peak_rss_mb": "MB"}
# names under which the human-readable lines repeat ops_per_s
THROUGHPUT_NAMES = {"allroots-hubbard3": "paths_per_s", "basins-slice": "pixels_per_s"}


def _spawn(mode: str, args, workdir: Path, deadline: float) -> dict:
    workdir.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    argv = [sys.executable, str(ROOT / "bench" / "worker.py"), mode, args.workload,
            str(args.seed), str(args.seconds), str(workdir), "1" if args.tiny else "0"]
    spawned = time.monotonic()
    # worker output goes to stderr so the last stdout line stays the result;
    # on timeout subprocess.run kills the worker and waits for it
    subprocess.run(argv, env=env, stdout=sys.stderr, check=True,
                   timeout=max(1.0, deadline - spawned))
    with open(workdir / "result.json", encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = result["ready_at"] - spawned
    return result


def _code_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ccroots").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        git = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git = None
    return {"git_sha": git, "src_sha256": digest.hexdigest()}


def _spread(values: list) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, quartiles {q1:.4g}..{q3:.4g}"


def _end_to_end(args, run_dir: Path, deadline: float) -> tuple:
    setups = [_spawn("setup", args, run_dir / f"setup{k}", deadline)["setup_s"]
              for k in range(SETUP_SAMPLES - 1)]
    res = _spawn("run", args, run_dir / "run", deadline)
    setups.append(res["setup_s"])
    walls = [p["wall_s"] for p in res["passes"] if p["ok"]] or [
        p["wall_s"] for p in res["passes"]]
    rates = [res["ops_per_pass"] / p["cmd_s"][res["ops_cmd"]]
             for p in res["passes"] if p["ok"]] or [0.0]
    values = {"setup_s": statistics.median(setups), "pass_s": statistics.median(walls),
              "ops_per_s": statistics.median(rates), "peak_rss_mb": res["peak_rss_mb"]}
    lines = [f"setup_s      {values['setup_s']:.4f} s     ({_spread(setups)})",
             f"pass_s       {values['pass_s']:.4f} s     ({_spread(walls)})",
             f"ops_per_s    {values['ops_per_s']:.6g} ops/s  ({res['ops_unit']} per "
             f"second of `{res['ops_cmd']}`, {_spread(rates)})",
             f"peak_rss_mb  {values['peak_rss_mb']:.1f} MB"]
    if args.workload in THROUGHPUT_NAMES:
        lines.append(f"{THROUGHPUT_NAMES[args.workload]:<12} "
                     f"{values['ops_per_s']:.6g} {res['ops_unit']}/s")
    fail_frac = res["failed"] / res["attempted"]
    lines.append(f"fail_frac    {fail_frac:.4g} ratio  ({res['failed']}/{res['attempted']} "
                 f"{res['ops_unit']})")
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return res, metrics, lines


def _per_layer(args, run_dir: Path, deadline: float) -> tuple:
    res = _spawn("trace", args, run_dir / "trace", deadline)
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    kept = traces / f"{args.workload}-seed{args.seed}.json"
    shutil.copyfile(run_dir / "trace" / "trace.json", kept)
    metrics = {k: {"value": res["metrics"][k], "unit": u} for k, u in PER_LAYER.items()}
    lines = [f"{k:<34} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    lines.append(f"spans written to {kept.relative_to(ROOT)}")
    return res, metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                        f"held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured time per run (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="the small self-test instance of the workload")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ccroots" / "__init__.py").is_file():
        print(f"error: no package sources at {ROOT / 'src' / 'ccroots'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    run_dir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        measure = _per_layer if args.trace else _end_to_end
        res, metrics, lines = measure(args, run_dir, deadline)
    except (OSError, ValueError, KeyError, subprocess.SubprocessError) as exc:
        print(f"error: the benchmark run failed: {exc!r}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    env = dict(res["environment"], **_code_identity())
    print(f"workload {args.workload}, seed {args.seed} (default {DEFAULT_SEED}, "
          f"held-out {HELD_OUT_SEED}), trace {args.trace}")
    print("params " + json.dumps(res["params"], sort_keys=True))
    print("environment " + json.dumps(env, sort_keys=True))
    for line in lines:
        print("  " + line)
    for problem in res["problems"]:
        print(f"CHECK FAILED: {problem}")
    correct = not res["problems"]
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
