"""Benchmark of the cavitydd workbench: one workload, one seed, a fixed time.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 30 --trace 0

Passes run one at a time, each in a fresh single-threaded worker process
(``worker.py``), so per-process caches start cold as for every CLI call.
Passes repeat while the next one is predicted to fit in ``--seconds``; the
time left is filled with set-up-only workers, so ``setup_s`` is a median over
more samples.  Every metric is printed by name and unit, with the
correctness check, and the last line of standard output is one JSON object.
The full record, with the environment, goes to ``.bench_results/``.

``--trace 0`` reports the end-to-end metrics, medians over the passes:
``setup_s`` (worker spawn until ready), ``solve_s`` (one pass over the
work list), ``peak_rss_mb`` (worker ``ru_maxrss``) and ``ok_ratio`` (items
passing the check / items attempted).  ``--trace 1`` alternates untraced and
traced passes and reports the per-layer calls and self times of the traced
ones, with the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".bench_results"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
RUN_LIMIT_S = 170        # a run must end within 180 s
MAX_SETUPS = 15          # set-up samples per run, passes included

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from tracer import ALLOC_SPAN, ROOTS, TRACED  # noqa: E402


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    return env


def spawn(workload: str, seed: int, deadline: float, trace=False,
          setup_only=False, spans=None) -> dict:
    """Run one worker to completion; returns its JSON record plus timings."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", str(spans)]
    start = _monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(5.0, deadline - start))
        lines = proc.stdout.strip().splitlines()
        rec = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except subprocess.TimeoutExpired:
        proc, rec = None, None
    end = _monotonic()
    if rec is None:
        rc = proc.returncode if proc else "timeout"
        return {"ok": False, "error": f"worker failed ({rc})",
                "wall_s": end - start}
    rec.update(ok=True, wall_s=end - start,
               setup_s=rec["ready_mono"] - start)
    return rec


class NoMeasurement(RuntimeError):
    """No worker completed the passes a result needs."""


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    RESULTS.mkdir(exist_ok=True)
    plan = workloads.build(workload, seed)
    start = _monotonic()
    deadline = start + RUN_LIMIT_S
    passes, setups, errors = [], [], []
    while True:
        traced = trace and len(passes) % 2 == 1
        spans = (RESULTS / f"spans-{workload}-seed{seed}-pass{len(passes)}"
                 ".csv.gz") if traced else None
        rec = spawn(workload, seed, deadline, trace=traced, spans=spans)
        rec["traced"] = traced
        passes.append(rec)
        if not rec["ok"]:
            errors.append(rec["error"])
            break
        setups.append(rec["setup_s"])
        elapsed = _monotonic() - start
        need_more = trace and len(passes) < 2
        if not need_more and elapsed + rec["wall_s"] > seconds:
            break
    while not errors and len(setups) < MAX_SETUPS:
        if _monotonic() - start + 1.5 * max(setups) > seconds:
            break
        rec = spawn(workload, seed, deadline, setup_only=True)
        if not rec["ok"]:
            errors.append(rec["error"])
            break
        setups.append(rec["setup_s"])

    n_items = len(plan.items)
    attempted = n_items * len(passes)
    failed = sum(n_items if not p["ok"] else
                 sum(not it["ok"] for it in p["items"]) for p in passes)
    failures = [f"{it['name']}: {it['detail']}" for p in passes if p["ok"]
                for it in p["items"] if not it["ok"]] + errors
    plain = [p for p in passes if p["ok"] and not p["traced"]]
    traced = [p for p in passes if p["ok"] and p["traced"]]
    if not plain or (trace and not traced):
        raise NoMeasurement(f"no {workload} pass completed: {errors}")

    if not trace:
        med = statistics.median
        metrics = {
            "setup_s": (med(setups), "s"),
            "solve_s": (med([p["solve_s"] for p in plain]), "s"),
            "peak_rss_mb": (med([p["peak_rss_mb"] for p in plain]), "MB"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        }
    else:
        metrics = layer_metrics(plain, traced)
    env = next((p["env"] for p in passes if p["ok"]), {})
    return {
        "correct": failed == 0 and not errors, "attempted": attempted,
        "failed": failed, "metrics": metrics, "failures": failures,
        "record": {
            "workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "environment": environment(env),
            "passes_run": len(passes), "traced_passes": len(traced),
            "setups_run": len(setups), "setup_s": setups,
            "passes": [{k: p.get(k) for k in ("traced", "wall_s", "setup_s",
                                              "solve_s", "peak_rss_mb",
                                              "items", "trace", "error")}
                       for p in passes],
        },
    }


def layer_metrics(plain: list, traced: list) -> dict:
    """Per-layer calls and self time (medians over the traced passes)."""
    out = {}
    names = [f"{m}.{f}" for m, f in TRACED] + list(ROOTS)
    for name in names:
        out[f"{name}.calls"] = (statistics.median(
            [p["trace"]["layers"][name]["calls"] for p in traced]), "count")
        out[f"{name}.self_s"] = (statistics.median(
            [p["trace"]["layers"][name]["self_s"] for p in traced]), "s")
    out[f"{ALLOC_SPAN}.peak_alloc_mb"] = (statistics.median(
        [p["trace"]["peak_alloc_mb"] for p in traced]), "MB")
    untraced_s = statistics.median([p["solve_s"] for p in plain])
    traced_s = statistics.median([p["solve_s"] for p in traced])
    out["trace_overhead"] = (traced_s / untraced_s, "ratio")
    out["trace.solve_s_traced"] = (traced_s, "s")
    out["trace.solve_s_untraced"] = (untraced_s, "s")
    out["trace.self_sum_ratio"] = (statistics.median(
        [p["trace"]["root_s"] / p["trace"]["wall_s"] for p in traced]),
        "ratio")
    return out


def environment(worker_env: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "cpu_model": cpu, "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        **worker_env, "blas_threads": {v: "1" for v in THREAD_VARS},
        "git_commit": commit, "src_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = [p for p in ("src/cavitydd/__init__.py", "figs")
               if not (ROOT / p).exists()]
    if missing:
        print(f"error: {ROOT} is not a cavitydd checkout (missing "
              f"{', '.join(missing)})", file=sys.stderr)
        return 2

    try:
        res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except NoMeasurement as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rec = res["record"]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(
        {k: res[k] for k in ("correct", "attempted", "failed", "metrics",
                             "failures", "record")}, indent=1) + "\n")

    print(f"workload {args.workload}, seed {args.seed}: {rec['passes_run']} "
          f"passes ({rec['traced_passes']} traced), {rec['setups_run']} "
          f"set-ups, record in .bench_results/{name}")
    for key, (value, unit) in res["metrics"].items():
        print(f"  {key:44s} {value:14.6g} {unit}")
    print(f"  {'fail_ratio':44s} {res['failed'] / res['attempted']:14.6g} "
          f"ratio ({res['failed']} of {res['attempted']} items)")
    print(f"check: {'PASS' if res['correct'] else 'FAIL'}")
    for line in res["failures"][:20]:
        print(f"  FAILED {line}")
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in res["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
