"""Compare two result sets of the benchmark.

    python3 perfbench/compare.py BASE_DIR NEW_DIR
    python3 perfbench/compare.py RESULTS_DIR          # one set: spreads only

A result set is a directory of the full records ``run.py`` writes
(``--results-dir``, default ``.perfbench/results``); untraced records
only.  For every workload and end-to-end metric of ``BENCHMARK.json``
it prints each side's median and quartiles, the spread (interquartile
distance over the median) and a verdict:

* ``worse beyond bound`` — the new median is worse than the base median
  by more than the metric's bound;
* ``unresolved`` — a side's spread is wider than the bound, so the runs
  cannot tell (unless every new run beats every base run);
* ``within bound`` — otherwise.

The exit code is 1 when any verdict is not ``within bound``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent


def load_set(directory: Path) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> values, over the untraced records."""
    values: Dict[str, Dict[str, List[float]]] = defaultdict(
        lambda: defaultdict(list))
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace"):
            continue
        for name, metric in record["metrics"].items():
            values[record["workload"]][name].append(metric["value"])
    return values


def summary(values: List[float]) -> Tuple[float, float, float, float]:
    """(median, q1, q3, spread) with spread = (q3 - q1) / median."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def verdict(base: List[float], new: List[float], bound: float,
            lower_is_better: bool) -> str:
    base_median, _, _, base_spread = summary(base)
    new_median, _, _, new_spread = summary(new)
    change = (new_median - base_median) / base_median if base_median else 0.0
    worse = change if lower_is_better else -change
    if max(base_spread, new_spread) > bound:
        if lower_is_better and max(new) < min(base):
            return "within bound"
        if not lower_is_better and min(new) > max(base):
            return "within bound"
        return "unresolved"
    if worse > bound:
        return "worse beyond bound"
    return "within bound"


def main(argv: List[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = [load_set(Path(arg)) for arg in argv]
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        print(f"== {workload}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            lower = metric["better"] == "lower"
            columns = []
            for result_set in sets:
                values = result_set.get(workload, {}).get(name, [])
                if not values:
                    columns.append(None)
                    continue
                columns.append((values, summary(values)))
            cells = []
            for column in columns:
                if column is None:
                    cells.append(f"{'(no runs)':>38}")
                    continue
                values, (median, q1, q3, spread) = column
                flag = "" if spread <= bound / 3 else "*"
                cells.append(f"n={len(values):<2} med {median:10.4f} "
                             f"[{q1:.4f}, {q3:.4f}] spread {spread:6.3f}"
                             f"{flag}")
            line = f"  {name:15s} {metric['unit']:5s} bound {bound:<5}"
            line += " | ".join(cells)
            if len(columns) == 2:
                if None in columns:
                    outcome = "unresolved"
                else:
                    outcome = verdict(columns[0][0], columns[1][0], bound,
                                      lower)
                line += f" => {outcome}"
                if outcome != "within bound":
                    status = 1
            print(line)
    print("(* spread above a third of the bound)")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
