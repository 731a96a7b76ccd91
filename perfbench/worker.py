"""One pass of a workload in a fresh process.

    python3 perfbench/worker.py --workload verify --seed 3 [--trace]
                                [--setup-only] [--spans FILE]

Set-up imports ``cavitydd`` from ``src/`` of this checkout, resolves the named
shapes the workload uses and builds the inputs of its library-level items.
The worker then reports the CLOCK_MONOTONIC instant it became ready (the
parent started its clock just before spawning it), runs every item once,
checks the outputs against the references after the timed pass, and prints
one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import check  # noqa: E402  (HERE is sys.path[0] when run as a script)
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Setup:
    """The package modules and the inputs built before the timed pass."""

    def __init__(self, plan: workloads.Plan, tracer: Tracer | None = None):
        sys.path.insert(0, str(ROOT / "src"))
        import cavitydd
        from cavitydd import cli, sequences
        package_dir = Path(cavitydd.__file__).resolve().parent
        if package_dir != ROOT / "src" / "cavitydd":
            raise ImportError(f"imported cavitydd from {cavitydd.__file__}")
        if tracer:
            tracer.install()
        self.cavitydd, self.cli, self.sequences = cavitydd, cli, sequences
        for name in plan.shapes:
            cli.resolve_shape(name)
        self.pulse = {}
        if any(item.mats is not None for item in plan.items):
            shape = cavitydd.gaussian(0.10)
            self.pulse_params = cavitydd.compute_params(shape)
            self.pulse_schedule = cavitydd.build_schedule(
                cavitydd.parse_sequence("X"), shape)
            for item in plan.items:
                if item.mats is not None:
                    self.pulse[item.name] = cavitydd.CouplingSet(*item.mats)


def run_cli(setup: Setup, argv: list) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = setup.cli.main(argv)
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_pulse_check(setup: Setup, name: str) -> dict:
    """Criterion-5 style fit of |U - (X0 + X1 + X2)| against the scale."""
    import numpy as np
    cd, seq = setup.cavitydd, setup.sequences
    defects = []
    for lam in workloads.PULSE_SCALES:
        scaled = setup.pulse[name].scaled(lam)
        u = cd.propagate_period(scaled, setup.pulse_schedule)
        approx = seq.expansion_sum(scaled, setup.pulse_params,
                                   cd.PulseSpec("x"))
        defects.append(float(np.linalg.norm(u - approx, 2)))
    p = float(np.polyfit(np.log(workloads.PULSE_SCALES), np.log(defects),
                         1)[0])
    return {"rc": 0, "exponent": p}


def check_item(item: workloads.Item, res: dict, work: Path):
    if "error" in res:
        return False, res["error"]
    if res["rc"] != 0:
        return False, f"exit code {res['rc']}: {res['stderr'].strip()[-300:]}"
    kind, *args = item.check
    if kind == "pulse":
        return check.check_exponent(res["exponent"], "pulse")
    if kind == "simulate":
        return check.check_simulate(res["stdout"], work / item.output, args[0])
    fn = {"table": check.check_table, "params": check.check_params,
          "design": check.check_design, "ordercheck": check.check_ordercheck,
          "effham": check.check_effham}[kind]
    return fn(res["stdout"], *args)


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_config": blas.get("openblas configuration")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="gzipped CSV to write the spans to")
    args = ap.parse_args(argv)

    plan = workloads.build(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    if tracer:
        with tracer.span("bench.setup"):
            setup = Setup(plan, tracer)
    else:
        setup = Setup(plan)
    ready = _monotonic()
    result = {"ready_mono": ready, "items": []}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="pass-", dir=ROOT / ".bench_work"))
    raw = []
    t0 = time.perf_counter()
    for item in plan.items:
        argv_i = [a.replace("{work}", str(work)) for a in item.argv]
        root = (tracer.span("bench.item") if tracer and item.mats is not None
                else contextlib.nullcontext())
        try:
            with root:
                res = (run_pulse_check(setup, item.name)
                       if item.mats is not None else run_cli(setup, argv_i))
        except (Exception, SystemExit):
            res = {"error": traceback.format_exc(limit=3)[-500:]}
        raw.append(res)
    solve_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()
        tracer.measure_alloc()

    for item, res in zip(plan.items, raw):
        try:
            ok, detail = check_item(item, res, work)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            ok, detail = False, f"check failed: {exc!r}"
        result["items"].append({"name": item.name, "ok": ok, "detail": detail})
    shutil.rmtree(work, ignore_errors=True)

    result["solve_s"] = solve_s
    result["peak_rss_mb"] = peak_rss_mb
    result["env"] = environment()
    if tracer:
        result["trace"] = tracer.summary()
        # traced wall time: the set-up root span plus the timed pass
        setup_span = tracer.spans[0]
        result["trace"]["wall_s"] = setup_span[2] - setup_span[1] + solve_s
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
