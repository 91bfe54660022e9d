"""One workload in its own process: set-up, timed passes, checks.

Usage (started by run.py):
    python3 bench/worker.py MODE WORKLOAD SEED SECONDS WORKDIR TINY

MODE is "setup" (set up and stop), "run" (timed passes for SECONDS) or
"trace" (untraced passes for half of SECONDS, then one traced pass).  The result goes to WORKDIR/result.json; the
CLI's own output is discarded.  ``ready_at`` is ``time.monotonic()`` at the
end of set-up, which the parent compares with its spawn time.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path


def run_pass(wl, pass_dir: Path, tracer=None) -> dict:
    """Run the workload's CLI chain inside pass_dir; time each command."""
    from ccroots.cli import main as cli_main

    pass_dir.mkdir(parents=True)
    cmd_s = {}
    ok = True
    home = os.getcwd()
    errors = io.StringIO()
    t0 = time.perf_counter()
    with open(os.devnull, "w") as sink, \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(errors):
        os.chdir(pass_dir)
        try:
            for argv in wl.chain():
                t = time.perf_counter()
                span = (tracer.span(f"cli.{argv[0]}") if tracer
                        else contextlib.nullcontext())
                with span:
                    try:
                        rc = cli_main(argv)
                    except SystemExit as exc:      # argparse rejects its input
                        rc = exc.code
                cmd_s[argv[0]] = cmd_s.get(argv[0], 0.0) + time.perf_counter() - t
                if rc != 0:
                    ok = False
                    print(f"`{' '.join(argv)}` exited {rc}: {errors.getvalue()}",
                          file=sys.__stderr__)
                    break
        finally:
            os.chdir(home)
    return {"wall_s": time.perf_counter() - t0, "cmd_s": cmd_s, "ok": ok}


def _artifacts(pass_dir: Path) -> dict:
    """File name -> content, with the manifest timestamps left out."""
    out = {}
    for path in sorted(pass_dir.iterdir()):
        data = path.read_bytes()
        if path.name.endswith(".manifest.json"):
            doc = json.loads(data)
            doc.pop("timestamp", None)
            data = json.dumps(doc, sort_keys=True).encode()
        out[path.name] = data
    return out


def differing_artifacts(reference: Path, other: Path) -> list:
    a, b = _artifacts(reference), _artifacts(other)
    return sorted(name for name in set(a) | set(b) if a.get(name) != b.get(name))


def compare(reference: Path, pass_dir: Path, record: dict) -> None:
    """Record which artifacts of a later pass differ from the reference pass."""
    record["diff"] = differing_artifacts(reference, pass_dir) if record["ok"] else []


def judge(wl, reference: Path, records: list) -> tuple:
    """Check the reference (first) pass against the oracle; a later pass
    inherits its verdict when its artifacts are byte-identical.  A pass with a
    non-zero exit or differing artifacts fails as a whole.
    Returns (attempted, failed, problems)."""
    ops = wl.ops_per_pass()
    problems, failed_ops = [], None
    if records[0]["ok"]:
        try:
            failed_ops, problems = wl.check(reference)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            problems = [f"artifacts of the first pass unreadable: {exc!r}"]
    checked = failed_ops is not None and not problems
    failed = 0
    for k, rec in enumerate(records):
        if not rec["ok"]:
            problems.append(f"pass {k}: a CLI command exited non-zero")
        elif rec.get("diff"):
            problems.append(f"pass {k}: artifacts differ from pass 0: {rec['diff']}")
        failed += failed_ops if checked and rec["ok"] and not rec.get("diff") else ops
    return ops * len(records), failed, problems


def timed_passes(wl, workdir: Path, budget: float) -> list:
    """Passes while another one is expected to end within the budget (at
    least one).  pass0 stays on disk as the reference; each later pass is
    compared with it and removed."""
    start = time.perf_counter()
    reference = workdir / "pass0"
    records = [run_pass(wl, reference)]
    while records[-1]["ok"] and (time.perf_counter() - start
                                 + records[-1]["wall_s"] <= budget):
        later = workdir / "pass"
        records.append(run_pass(wl, later))
        compare(reference, later, records[-1])
        shutil.rmtree(later)
    return records


def environment() -> dict:
    """Machine and library versions, with OpenBLAS's own thread count."""
    import ctypes
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in Path(np.__file__).parent.with_name("numpy.libs").glob("*openblas*"):
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        threads = fn() if fn else None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads}


def main(argv) -> int:
    mode, name, seed, seconds, workdir, tiny = argv
    workdir = Path(workdir)
    bench_dir = Path(__file__).resolve().parent
    sys.path.insert(0, str(bench_dir))
    from workloads import WORKLOADS
    import ccroots
    from ccroots.cli import main as cli_main

    src = bench_dir.parent / "src"
    if not Path(ccroots.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"ccroots imported from {ccroots.__file__}, not from {src}")

    wl = WORKLOADS[name](int(seed), tiny == "1")
    inputs = workdir / "inputs"
    inputs.mkdir(parents=True)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        wl.prepare(inputs, cli_main)
    result = {"ready_at": time.monotonic(), "params": wl.params}
    if mode != "setup":
        result["environment"] = environment()
    if mode == "run":
        records = timed_passes(wl, workdir, float(seconds))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["passes"] = records
        result["attempted"], result["failed"], result["problems"] = judge(
            wl, workdir / "pass0", records)
        result["ops_per_pass"] = wl.ops_per_pass()
        result["ops_cmd"] = wl.ops_cmd
        result["ops_unit"] = wl.ops_unit
    elif mode == "trace":
        from layers import traced_pass
        from tracing import Tracer

        # untraced passes for half the budget give the overhead reference
        records = timed_passes(wl, workdir, float(seconds) / 2)
        untraced_s = statistics.median(r["wall_s"] for r in records)
        tracer = Tracer()
        record, metrics = traced_pass(wl, tracer, run_pass, workdir / "traced", untraced_s)
        compare(workdir / "pass0", workdir / "traced", record)
        records.append(record)
        result["attempted"], result["failed"], result["problems"] = judge(
            wl, workdir / "pass0", records)
        result["metrics"] = metrics
        result["passes"] = records
        tracer.write(workdir / "trace.json", {"workload": name, "seed": int(seed),
                                              "params": wl.params, "metrics": metrics})
    with open(workdir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
