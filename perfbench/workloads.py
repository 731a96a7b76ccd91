"""The four benchmark workloads, generated from a seed.

The seed draws the item order, the shape widths of ``design`` and the random
coupling sets of ``verify``; the package receives only the generated inputs.
Every workload is a single client in a closed loop: the next item starts when
the previous one has returned.

* ``design``  -- the only propagation-free workload: parameter table with the
  cold S1/S2/Q1/Q2 designs, designer runs and seeded-width parameter rows.
* ``figures`` -- the paper's figure protocols, ``simulate`` on the shipped
  ``figs/fig1..6.cfg`` (dim 18, 100 periods, 56 states).
* ``verify``  -- order checks (criterion 6), effective-Hamiltonian verdicts
  (criterion 10) and seeded single-pulse expansion checks (criterion 5):
  the CF4 path at dim 4-8 with many distinct schedules and no reuse.
* ``longrun`` -- one 20000-period stroboscopic run, where the trace loop,
  trace storage and CSV emission dominate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("design", "figures", "verify", "longrun")

# seeded envelope widths are drawn from this grid, for which reference rows
# were recorded; four fresh widths per run keep the shape caches cold
WIDTH_GRID = tuple(round(0.04 + 0.001 * i, 3) for i in range(81))
N_WIDTHS = 4
# oscillator dims of the single-pulse checks: fixed, so the seed varies the
# couplings but not the amount of work
PULSE_DIMS = (2, 3, 3, 4)
PULSE_SCALES = (0.4, 0.2, 0.1, 0.05)

_ORDERCHECK = (("8a", "Q1"), ("8s", "Q1"), ("xbarx", "G10"))
_ORDERCHECK_ARGS = ["--omega-r", "0", "--g", "0.1", "--n-max", "3",
                    "--scales", "0.4,0.2,0.1,0.04"]
_EFFHAM_ARGS = ["--omega-r", "0.02", "--omega-0", "0.03", "--g", "0.02",
                "--n-max", "3"]
LONGRUN_PERIODS = 20000


@dataclass
class Item:
    """One unit of work.  CLI items carry ``argv`` (``{work}`` stands for the
    pass's scratch directory); pulse checks carry coupling matrices."""

    name: str
    check: tuple
    argv: list = field(default_factory=list)
    output: str | None = None
    mats: list | None = None


@dataclass
class Plan:
    shapes: tuple           # named shapes resolved during set-up
    items: list


def random_coupling_mats(rng: np.random.Generator, dim: int, scale=0.35):
    """Four random bounded Hermitian matrices (the criterion-5 generator)."""
    mats = []
    for _ in range(4):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = (m + m.conj().T) / 2
        mats.append(scale * m / max(1.0, np.linalg.norm(m, 2)))
    return mats


def _design_items(rng):
    items = [
        Item("params-table", ("table",), ["params"]),
        Item("params-Q1", ("params", "Q1"), ["params", "--shape", "Q1"]),
        Item("design-Q1", ("design", "Q1"),
             ["design", "--family", "Q", "-L", "1"]),
        Item("design-S2+1", ("design", "S2+1"),
             ["design", "--family", "S", "-L", "2", "--extra-terms", "1"]),
    ]
    for i in rng.choice(len(WIDTH_GRID), size=N_WIDTHS, replace=False):
        for kind in ("gaussian", "hermitian"):
            spec = f"{kind}:{WIDTH_GRID[i]:.3f}"
            items.append(Item(f"params-{spec}", ("params", spec),
                              ["params", "--shape", spec]))
    return (), items


def _figures_items(rng):
    items = [Item(f"fig{k}", ("simulate", f"fig{k}.csv"),
                  ["simulate", "--config", f"figs/fig{k}.cfg",
                   "--output", f"{{work}}/fig{k}.csv"],
                  output=f"fig{k}.csv")
             for k in range(1, 7)]
    return ("G10", "S1"), items


def _verify_items(rng):
    items = [Item(f"ordercheck-{seq}+{shape}", ("ordercheck", seq),
                  ["ordercheck", "--sequence", seq, "--shape", shape]
                  + _ORDERCHECK_ARGS)
             for seq, shape in _ORDERCHECK]
    items += [Item(f"effham-{seq}+G10", ("effham", seq),
                   ["effham", "--sequence", seq, "--shape", "G10"]
                   + _EFFHAM_ARGS)
              for seq in ("4p", "8a", "8s")]
    for j, dim in enumerate(PULSE_DIMS):
        items.append(Item(f"pulse-{j}-dim{dim}", ("pulse",),
                          mats=random_coupling_mats(rng, dim)))
    return ("Q1", "G10"), items


def _longrun_items(rng):
    items = [Item("longrun-8s+Q1", ("simulate", "longrun.csv.gz"),
                  ["simulate", "--sequence", "8s", "--shape", "Q1",
                   "--periods", str(LONGRUN_PERIODS),
                   "--output", "{work}/longrun.csv"],
                  output="longrun.csv")]
    return ("Q1",), items


_WORKLOAD_ITEMS = {"design": _design_items, "figures": _figures_items,
             "verify": _verify_items, "longrun": _longrun_items}


def build(workload: str, seed: int) -> Plan:
    """The workload's inputs for ``seed``; one seed always gives one plan."""
    rng = np.random.default_rng(seed)
    shapes, items = _WORKLOAD_ITEMS[workload](rng)
    order = rng.permutation(len(items))
    return Plan(shapes, [items[i] for i in order])
