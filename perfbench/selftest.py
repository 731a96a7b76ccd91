"""Self-tests of the benchmark (not part of the package's test suite):

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402


def _cli(argv) -> str:
    import contextlib
    import io

    from cavitydd import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


@pytest.fixture
def perturbed(monkeypatch):
    """Replace check.load_json by a copy edited by the test."""
    def apply(name, edit):
        data = json.loads(json.dumps(check.load_json(name)))
        edit(data)
        real = check.load_json
        monkeypatch.setattr(check, "load_json",
                            lambda n: data if n == name else real(n))
    return apply


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "solve_s", "peak_rss_mb", "ok_ratio"}
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    fake = {"layers": {f"{m}.{f}": {"calls": 1, "self_s": 0.1}
                       for m, f in TRACED + (("bench", "setup"),
                                             ("bench", "item"))},
            "peak_alloc_mb": 1.0, "root_s": 1.0, "wall_s": 1.0}
    produced = run.layer_metrics([{"solve_s": 1.0}],
                                 [{"solve_s": 1.1, "trace": fake}])
    assert set(produced) == {m["name"] for m in spec["per_layer"]}
    for m in spec["per_layer"]:
        assert produced[m["name"]][1] == m["unit"]


def test_same_seed_same_inputs_and_seed_varies_them():
    for name in workloads.WORKLOADS:
        a, b = workloads.build(name, 7), workloads.build(name, 7)
        assert [i.argv for i in a.items] == [i.argv for i in b.items]
        for x, y in zip(a.items, b.items):
            if x.mats is not None:
                assert all(np.array_equal(p, q)
                           for p, q in zip(x.mats, y.mats))
    orders = {tuple(i.name for i in workloads.build("design", s).items)
              for s in range(5)}
    assert len(orders) == 5
    widths = {i.name for s in range(5)
              for i in workloads.build("design", s).items}
    assert len(widths) > 4 + 2 * workloads.N_WIDTHS


def test_design_check_fails_on_perturbed_reference(perturbed):
    item = next(i for i in workloads.build("design", 0).items
                if i.name == "design-S2+1")
    out = _cli(item.argv)
    assert check.check_design(out, "S2+1")[0]

    def bump(data):
        data["design"]["S2+1"][2] += 3e-10
    perturbed("design.json", bump)
    ok, detail = check.check_design(out, "S2+1")
    assert not ok and "coefficient 2" in detail


def test_params_and_table_checks_fail_on_perturbed_reference(perturbed):
    out = _cli(["params", "--shape", "gaussian:0.050"])
    assert check.check_params(out, "gaussian:0.050")[0]
    table = "\n".join(["header"] + [
        f"{n} {s:.7f} {a:.7f} {z:.6f} 0.25"
        for n, (s, a, z) in check.load_json("design.json")["table"].items()])
    assert check.check_table(table)[0]

    def bump(data):
        data["params"]["gaussian:0.050"][2] += 1e-6
        data["table"]["G10"][0] += 1e-6
    perturbed("design.json", bump)
    assert not check.check_params(out, "gaussian:0.050")[0]
    assert not check.check_table(table)[0]


def test_verdict_and_exponent_checks():
    out = "verdict: best match is 'generic, printed convention' (defect 1e-3)"
    assert not check.check_effham(out, "4p")[0]
    assert check.check_ordercheck("fitted exponent p = 1.010", "xbarx")[0]
    assert not check.check_ordercheck("fitted exponent p = 1.300", "xbarx")[0]
    assert not check.check_exponent(2.7, "pulse")[0]


def test_csv_check_fails_on_perturbed_field_and_large_halving(tmp_path):
    ref = check.REFERENCE_DIR / "fig1.csv"
    rows = ref.read_text().splitlines()
    assert check.check_simulate("halving diff = 1.0e-12", ref, "fig1.csv")[0]
    assert not check.check_simulate("halving diff = 2.0e-08", ref,
                                    "fig1.csv")[0]
    fields = rows[50].split(",")
    fields[2] = repr(float(fields[2]) - 5e-8)
    rows[50] = ",".join(fields)
    bad = tmp_path / "fig1.csv"
    bad.write_text("\n".join(rows) + "\n")
    ok, detail = check.compare_csv(bad, ref)
    assert not ok and "row 50" in detail
    assert not check.compare_csv(ref, check.REFERENCE_DIR / "fig2.csv")[0]


def test_tracer_self_times_sum_to_root_spans_and_restores():
    import cavitydd
    from cavitydd import algebra, cli, propagate
    originals = (algebra.expm_herm, propagate.expm_herm, cli.main)
    tracer = Tracer()
    tracer.install()
    try:
        assert propagate.expm_herm is not originals[1]
        _cli(["effham", "--sequence", "8a", "--shape", "G10",
              "--n-max", "1", "--steps-per-pulse", "64"])
    finally:
        tracer.uninstall()
    assert (algebra.expm_herm, propagate.expm_herm, cli.main) == originals
    assert cavitydd.expm_herm is originals[0]
    summary = tracer.summary()
    layers = summary["layers"]
    assert layers["cli.main"]["calls"] == 1
    assert layers["algebra.is_hermitian"]["calls"] > \
        layers["algebra.expm_herm"]["calls"] > 0
    # 4 distinct pulses of 8a, 2 nodes per step, 64 steps plus 32 halved
    assert layers["shapes.amplitude"]["calls"] == 2 * 4 * (64 + 32)
    total_self = sum(v["self_s"] for v in layers.values())
    assert total_self == pytest.approx(summary["root_s"], rel=1e-9)


def test_worker_setup_only_reports_ready_time():
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"),
                           "--workload", "design", "--seed", "1",
                           "--setup-only"], cwd=ROOT, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["ready_mono"] > 0


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "design", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
