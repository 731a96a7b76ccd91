"""Correctness check of benchmark items against reference outputs.

References were recorded at the commit the benchmark was defined on (see
``record_reference.py``) and live in ``reference/``.  Every check returns
``(ok, detail)``; an item fails when its exit code is non-zero, when it
raised, or when its output departs from the reference by more than the
tolerances below, which are tied to the package's own numerical checks.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
import re
from functools import lru_cache
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# propagated observables: the scale of the propagator's step-halving
# self-check (propagate.SELF_CHECK_TOL)
OBSERVABLE_TOL = 1e-8
# the step-halving difference an item may report
HALVING_TOL = 1e-8
# designed Fourier coefficients and shape parameters before print rounding
COEFF_TOL = 1e-10
# fitted exponent windows of acceptance criteria 5 (single pulse) and 6
EXPONENT_WINDOWS = {"8a": (2.8, math.inf), "8s": (2.8, math.inf),
                    "xbarx": (0.8, 1.2), "pulse": (2.8, 3.2)}


@lru_cache(maxsize=None)
def load_json(name: str) -> dict:
    with open(REFERENCE_DIR / name) as fh:
        return json.load(fh)


def read_csv_rows(path) -> list[list[str]]:
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rt", newline="") as fh:
        return list(csv.reader(fh))


def _printed_close(text: str, ref: float) -> bool:
    """A value printed with d decimals matches ``ref`` to COEFF_TOL, allowing
    the half unit of the last printed digit that rounding adds."""
    decimals = len(text.split(".")[1]) if "." in text else 0
    tol = COEFF_TOL + 0.5 * 10.0 ** -decimals
    return abs(float(text) - ref) <= tol * (1 + 1e-9)


def compare_csv(path, ref_path, tol: float = OBSERVABLE_TOL):
    """Field-by-field comparison of a trace CSV with its reference."""
    got = read_csv_rows(path)
    ref = read_csv_rows(ref_path)
    if len(got) != len(ref):
        return False, f"{len(got)} rows, reference has {len(ref)}"
    if got[0] != ref[0]:
        return False, f"header {got[0]} != {ref[0]}"
    worst = 0.0
    for k, (row, rrow) in enumerate(zip(got[1:], ref[1:]), 1):
        if len(row) != len(rrow) or row[0] != rrow[0]:
            return False, f"row {k} malformed: {row}"
        for a, b in zip(row[1:], rrow[1:]):
            d = abs(float(a) - float(b))
            if not d <= tol:
                return False, f"row {k}: {a} vs reference {b} (|d| = {d:.2e})"
            worst = max(worst, d)
    return True, f"{len(got) - 1} rows, max |d| = {worst:.1e}"


def check_simulate(stdout: str, csv_path, ref_name: str):
    m = re.search(r"halving diff = (\S+)", stdout)
    if not m:
        return False, "no halving difference reported"
    halving = float(m.group(1))
    if not halving <= HALVING_TOL:
        return False, f"halving difference {halving:.2e} > {HALVING_TOL:g}"
    return compare_csv(csv_path, REFERENCE_DIR / ref_name)


def check_table(stdout: str):
    ref = load_json("design.json")["table"]
    seen = set()
    for line in stdout.splitlines()[1:]:
        tok = line.split()
        if not tok or tok[0] not in ref:
            continue
        for text, r, label in zip(tok[1:4], ref[tok[0]],
                                  ("s", "alpha/2", "zeta")):
            if not _printed_close(text, r):
                return False, f"{tok[0]} {label} = {text}, reference {r!r}"
        seen.add(tok[0])
    missing = set(ref) - seen
    if missing:
        return False, f"table rows missing: {sorted(missing)}"
    return True, f"{len(seen)} rows"


def check_params(stdout: str, shape: str):
    ref = load_json("design.json")["params"][shape]
    for label, r in zip(("s", "alpha/2", "zeta", "area"), ref):
        m = re.search(rf"^{re.escape(label)}\s*= (\S+)$", stdout, re.M)
        if not m:
            return False, f"{label} not reported"
        if not _printed_close(m.group(1), r):
            return False, f"{label} = {m.group(1)}, reference {r!r}"
    return True, "s, alpha/2, zeta, area"


def check_design(stdout: str, key: str):
    ref = load_json("design.json")["design"][key]
    m = re.search(r"^coefficients \(2\*pi/taup units\): (.*)$", stdout, re.M)
    if not m:
        return False, "no coefficients reported"
    got = [t.strip() for t in m.group(1).split(",")]
    if len(got) != len(ref):
        return False, f"{len(got)} coefficients, reference has {len(ref)}"
    for j, (text, r) in enumerate(zip(got, ref)):
        if not _printed_close(text, r):
            return False, f"coefficient {j} = {text}, reference {r!r}"
    return True, f"{len(ref)} coefficients"


def check_exponent(p: float, window: str):
    lo, hi = EXPONENT_WINDOWS[window]
    if not lo <= p <= hi:
        return False, f"exponent {p:.3f} outside [{lo}, {hi}]"
    return True, f"p = {p:.3f}"


def check_ordercheck(stdout: str, sequence: str):
    m = re.search(r"^fitted exponent p = (\S+)$", stdout, re.M)
    if not m:
        return False, "no fitted exponent reported"
    return check_exponent(float(m.group(1)), sequence)


def check_effham(stdout: str, sequence: str):
    ref = load_json("verify.json")["effham_verdict"][sequence]
    m = re.search(r"^verdict: best match is '(.+)' \(defect", stdout, re.M)
    if not m:
        return False, "no verdict reported"
    if m.group(1) != ref:
        return False, f"verdict {m.group(1)!r}, reference {ref!r}"
    return True, f"verdict {ref!r}"
