"""Record the reference outputs the benchmark's correctness check compares
against.  Run from the repository root on the commit whose outputs are the
reference:

    python3 perfbench/record_reference.py

Writes ``perfbench/reference/``: the six figure CSVs and the gzipped long-run
CSV (produced by the same CLI calls the workloads make), the designed
coefficients and parameter-table rows at full precision, the parameters of
every seeded-width shape, and the effective-Hamiltonian verdicts.  The order
check and single-pulse exponents need no recording: they are checked against
the acceptance-criterion windows.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import os
import re
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from cavitydd import cli, designer, shapes  # noqa: E402


def _cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{argv} exited with {rc}")
    return out.getvalue()


def _params(shape) -> list:
    p = shapes.compute_params(shape)
    return [p.s, p.alpha / 2, p.zeta, p.area]


def main() -> None:
    os.chdir(ROOT)  # the figure items name their configs relative to it
    ref = HERE / "reference"
    ref.mkdir(exist_ok=True)
    tmp = ROOT / ".bench_work" / "record"
    tmp.mkdir(parents=True, exist_ok=True)

    design = {
        "table": {name: [s, ah, z] for name, s, ah, z in shapes.table_rows()},
        "params": {"Q1": _params(designer.design_named("Q1").shape)},
        "design": {
            "Q1": list(designer.design(designer.DesignSpec("Q", 1)).coeffs),
            "S2+1": list(designer.design(
                designer.DesignSpec("S", 2, extra_terms=1)).coeffs),
        },
    }
    for w in workloads.WIDTH_GRID:
        design["params"][f"gaussian:{w:.3f}"] = _params(shapes.gaussian(w))
        design["params"][f"hermitian:{w:.3f}"] = _params(shapes.hermitian(w))
    (ref / "design.json").write_text(json.dumps(design, indent=1) + "\n")

    verdicts = {}
    for item in workloads.build("verify", 0).items:
        if item.check[0] == "effham":
            out = _cli(item.argv)
            verdicts[item.check[1]] = re.search(
                r"^verdict: best match is '(.+)' \(defect", out, re.M).group(1)
    (ref / "verify.json").write_text(
        json.dumps({"effham_verdict": verdicts}, indent=1) + "\n")

    for name in ("figures", "longrun"):
        for item in workloads.build(name, 0).items:
            argv = [a.replace("{work}", str(tmp)) for a in item.argv]
            _cli(argv)
            src = tmp / item.output
            if item.check[1].endswith(".gz"):
                with open(src, "rb") as fin, \
                        gzip.GzipFile(ref / item.check[1], "wb",
                                      mtime=0) as fout:
                    shutil.copyfileobj(fin, fout)
            else:
                shutil.copyfile(src, ref / item.check[1])
    shutil.rmtree(tmp)


if __name__ == "__main__":
    main()
