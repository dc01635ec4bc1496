"""Compare two result sets of the benchmark.

    python3 perfbench/compare.py BASE CANDIDATE

BASE and CANDIDATE are directories of run records written by
``perfbench/run.py --out DIR`` (untraced runs; one per seed).  For each
workload and end-to-end metric the table shows each side's median and
quartiles and a label:

* ``better`` — the candidate wins at least nine tenths of the paired
  runs (paired by seed, ties count for neither side) and the medians
  differ by more than the base's own quartile distance;
* ``worse`` — the candidate's median is worse than the base's by more
  than the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` — either side's run-to-run spread (quartile distance
  over median) is wider than the bound and not every candidate run
  beats every base run, or there are too few runs to tell;
* ``within bound`` — otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(directory: Path) -> "dict[str, dict[int, dict[str, float]]]":
    """workload -> seed -> end-to-end metric values, untraced runs only."""
    runs: "dict[str, dict[int, dict[str, float]]]" = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if record.get("trace") or not record.get("end_to_end"):
            continue
        runs.setdefault(record["workload"], {})[int(record["seed"])] = record["end_to_end"]
    return runs


def quartiles(values: "list[float]") -> "tuple[float, float, float]":
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def label(base: "list[float]", cand: "list[float]", pairs, better: str, bound: float) -> str:
    """Classify one metric on one workload (see the module docstring)."""
    if len(base) < 2 or len(cand) < 2:
        return "unresolved"
    sign = -1.0 if better == "lower" else 1.0
    b1, b_med, b3 = quartiles(base)
    c1, c_med, c3 = quartiles(cand)
    spread = max((b3 - b1) / abs(b_med), (c3 - c1) / abs(c_med))
    gain = sign * (c_med - b_med)
    if spread > bound:
        beats_all = all(sign * c > sign * b for c in cand for b in base)
        return "better" if beats_all else "unresolved"
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    if pairs and wins >= 0.9 * len(pairs) and gain > b3 - b1:
        return "better"
    if -gain > bound * abs(b_med):
        return "worse"
    return "within bound"


def compare(base_dir: Path, cand_dir: Path, benchmark: dict) -> "list[tuple]":
    base_runs = load_runs(base_dir)
    cand_runs = load_runs(cand_dir)
    rows = []
    for workload in [w["name"] for w in benchmark["workloads"]]:
        base = base_runs.get(workload, {})
        cand = cand_runs.get(workload, {})
        if not base or not cand:
            continue
        common = sorted(set(base) & set(cand))
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            b_values = [run[name] for run in base.values()]
            c_values = [run[name] for run in cand.values()]
            if common:
                pairs = [(base[s][name], cand[s][name]) for s in common]
            else:
                pairs = list(zip(b_values, c_values))
            verdict = label(b_values, c_values, pairs, metric["better"], metric["bound"])
            rows.append((workload, name, metric["unit"], b_values, c_values, verdict))
    return rows


def _describe(values: "list[float]") -> str:
    if len(values) < 2:
        return f"{values[0]:.6g} (n=1)" if values else "-"
    q1, median, q3 = quartiles(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("candidate", type=Path)
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    benchmark = json.loads(args.benchmark.read_text(encoding="utf-8"))
    rows = compare(args.base, args.candidate, benchmark)
    if not rows:
        print("no workload has untraced runs on both sides", file=sys.stderr)
        return 1
    print(f"{'workload':<16} {'metric':<26} {'base median [q1, q3]':<40} "
          f"{'candidate median [q1, q3]':<40} label")
    for workload, name, unit, b_values, c_values, verdict in rows:
        print(f"{workload:<16} {name + ' (' + unit + ')':<26} {_describe(b_values):<40} "
              f"{_describe(c_values):<40} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
