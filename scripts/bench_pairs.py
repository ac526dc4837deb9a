#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, summarised per end-to-end metric.

Runs N pairs of ``python3 bench/run.py`` from a parent checkout and a
changed one, each in its own directory, on the same seed and run length.
The parent runs first in odd pairs and the change in even ones, so that a
drift of the machine over the session does not favour one side. For each
workload and end-to-end metric it prints each side's median and quartiles,
the change's median against the parent's in per cent, how many pairs the
change won (ties count for neither side), taking the direction from
``BENCHMARK.json``'s ``better``, and a no-regression verdict
against the metric's ``bound`` (a share of the median): "worse" when the
change's median is worse than the parent's by more than the bound,
"unresolved" when either side's interquartile range is wider than the bound
of its median and the change did not beat the parent in every run against
every run, else "no worse". Each workload's failed-op share is printed per
side. A ``--claim METRIC`` is met when the change won at least nine tenths
of at least ten pairs, and the medians differ, in the better direction, by
more than the parent's interquartile range. The script exits 1 when any
verdict is "worse" or the change failed a larger share of its ops than the
parent, else 0. ``--out`` is rewritten after every pair, so a run that exits
non-zero loses none of the pairs before it: the script then names the run
(workload, side, pair, exit code), prints its stderr and exits 2.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload detect-eval \\
        --pairs 10 --seed 11 --seconds 30 --claim op_ms_p90 --out runs.json
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
MIN_CLAIM_PAIRS = 10
CLAIM_WIN_SHARE = 0.9


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced bench run in `checkout`; its result line as a dict. A
    run that exits non-zero raises `subprocess.CalledProcessError`."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(pairs: list[dict[str, dict]], end_to_end: list[dict]) -> dict[str, dict]:
    """Per-metric statistics of `pairs`, each pair mapping "parent" and
    "change" to one workload's result dicts. Metrics missing from any run
    are left out."""
    stats = {}
    for spec in end_to_end:
        name = spec["name"]
        if not all(name in pair[side]["metrics"] for pair in pairs for side in SIDES):
            continue
        values = {side: [pair[side]["metrics"][name]["value"] for pair in pairs] for side in SIDES}
        sign = -1.0 if spec["better"] == "lower" else 1.0
        stat = stats[name] = {
            "better": spec["better"],
            "unit": spec["unit"],
            "bound": spec["bound"],
            **values,
            **{f"{side}_quartiles": np.percentile(values[side], [25, 50, 75]).tolist()
               for side in SIDES},
            "wins": sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"])),
            "pairs": len(pairs),
        }
        stat["verdict"] = verdict(stat)
    return stats


def verdict(stat: dict) -> str:
    """Whether the change's median is worse than the parent's by more than
    the bound: "no worse", "worse", or "unresolved" when either side's runs
    spread wider than the bound and not every change run beats every parent
    run. Bound and spread are shares of the median."""
    sign = -1.0 if stat["better"] == "lower" else 1.0
    if min(sign * np.array(stat["change"])) > max(sign * np.array(stat["parent"])):
        return "no worse"
    for side in SIDES:
        q1, median, q3 = stat[f"{side}_quartiles"]
        if q3 - q1 > stat["bound"] * abs(median):
            return "unresolved"
    parent, change = stat["parent_quartiles"][1], stat["change_quartiles"][1]
    return "worse" if sign * (parent - change) > stat["bound"] * abs(parent) else "no worse"


def failed_ops(pairs: list[dict[str, dict]], side: str) -> tuple[int, int]:
    """(failed, attempted) ops of one side over its runs."""
    return tuple(sum(pair[side][key] for pair in pairs) for key in ("failed", "attempted"))


def format_failed(workload: str, pairs: list[dict[str, dict]]) -> str:
    """Each side's failed-op share over its runs."""
    shares = []
    for side in SIDES:
        failed, attempted = failed_ops(pairs, side)
        shares.append(f"{side} {failed / attempted:.4g} ({failed} of {attempted})")
    return f"{workload} failed-op share: {', '.join(shares)}"


def regressed(pairs: list[dict[str, dict]], stats: dict[str, dict]) -> bool:
    """Whether a metric's verdict is "worse" or the change failed a larger
    share of its ops than the parent."""
    (p_failed, p_attempted), (c_failed, c_attempted) = (failed_ops(pairs, s) for s in SIDES)
    return (any(s["verdict"] == "worse" for s in stats.values())
            or c_failed * p_attempted > p_failed * c_attempted)


def claim_met(stat: dict) -> bool:
    """Whether a metric's statistics support claiming a gain: at least nine
    tenths of at least ten pairs won, and the medians further apart, in the
    better direction, than the parent's interquartile range."""
    (q1, parent_median, q3), change_median = stat["parent_quartiles"], stat["change_quartiles"][1]
    gain = change_median - parent_median if stat["better"] == "higher" else parent_median - change_median
    return (stat["pairs"] >= MIN_CLAIM_PAIRS and stat["wins"] >= CLAIM_WIN_SHARE * stat["pairs"]
            and gain > q3 - q1)


def median_change(stat: dict) -> str:
    """The change's median against the parent's, in per cent of the parent's;
    "n/a" when the parent's median is 0."""
    parent, change = stat["parent_quartiles"][1], stat["change_quartiles"][1]
    return f"{(change - parent) / abs(parent):+.1%}" if parent else "n/a"


def format_summary(workload: str, stats: dict[str, dict], claim: str | None = None) -> list[str]:
    """Printable lines: one per metric, with the median change in per cent,
    then the claim's verdict if any."""
    lines = []
    for name, s in stats.items():
        (pq1, pm, pq3), (cq1, cm, cq3) = s["parent_quartiles"], s["change_quartiles"]
        lines.append(
            f"{workload} {name}: parent {pm:.6g} [{pq1:.6g}, {pq3:.6g}]"
            f"  change {cm:.6g} [{cq1:.6g}, {cq3:.6g}] {s['unit']}"
            f"  median change {median_change(s)}"
            f"  change won {s['wins']}/{s['pairs']} ({s['better']} is better)"
            f"  {s['verdict']} at bound {s['bound']:g}"
        )
    if claim is not None:
        if claim not in stats:
            lines.append(f"{workload} claim {claim}: not measured")
        else:
            s = stats[claim]
            verdict = "met" if claim_met(s) else "not met"
            lines.append(
                f"{workload} claim {claim}: {verdict} (won {s['wins']}/{s['pairs']}, medians "
                f"{s['parent_quartiles'][1]:.6g} -> {s['change_quartiles'][1]:.6g} "
                f"({median_change(s)}), parent IQR {s['parent_quartiles'][2] - s['parent_quartiles'][0]:.6g})"
            )
            lines.append(f"  parent runs: {' '.join(f'{v:.6g}' for v in s['parent'])}")
            lines.append(f"  change runs: {' '.join(f'{v:.6g}' for v in s['change'])}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--claim", help="an end-to-end metric to test a gain on")
    parser.add_argument("--out", type=Path, help="write every run's result here as JSON")
    args = parser.parse_args()
    spec = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    runs: dict[str, list[dict]] = {w: [] for w in args.workload}
    for i in range(1, args.pairs + 1):
        order = SIDES if i % 2 else SIDES[::-1]
        for workload in args.workload:
            pair = {}
            for side in order:
                try:
                    pair[side] = run_bench(getattr(args, side), workload, args.seed, args.seconds)
                except subprocess.CalledProcessError as exc:
                    print(f"bench run failed: workload {workload}, {side} side, pair {i}: "
                          f"exit {exc.returncode}", file=sys.stderr)
                    sys.stderr.write(exc.stderr or "")
                    return 2
            runs[workload].append(pair)
            print(f"pair {i} {workload}: {' then '.join(order)}", file=sys.stderr)
            if args.out:
                args.out.write_text(json.dumps(runs, indent=1, sort_keys=True))
    worse = False
    for workload, pairs in runs.items():
        stats = summarize(pairs, spec)
        print("\n".join(format_summary(workload, stats, args.claim)))
        print(format_failed(workload, pairs))
        worse |= regressed(pairs, stats)
    return int(worse)


if __name__ == "__main__":
    sys.exit(main())
