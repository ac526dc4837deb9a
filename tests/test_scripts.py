"""Smoke tests: each demo script's main() runs to the end on small inputs.
bench_pairs.py is tested through its summary on canned bench results and
on temporary checkouts with a stand-in bench/run.py; no test starts the
benchmark."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_main(name: str, argv: list[str], monkeypatch) -> None:
    module = load_script(name)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    assert module.main() is None


@pytest.mark.parametrize(
    "name, argv",
    [
        ("synthetic_tracking_experiment", ["--frames", "20", "--seeds", "1"]),
        ("streamline_demo", ["--trials", "8"]),
    ],
)
def test_script_returns(name, argv, monkeypatch, capsys):
    run_main(name, argv, monkeypatch)
    assert capsys.readouterr().out


def test_fifo_sizing_experiment_reports_deadlock_and_sizing(monkeypatch, capsys):
    run_main("fifo_sizing_experiment", [], monkeypatch)
    lines = capsys.readouterr().out.splitlines()
    assert lines[:5] == [
        "default depths: deadlock",
        "  blocked nodes: src, fork, bshort, acc, join",
        "  full edges:    e1, e2, e_in",
        "recommended depths: {'e_in': 1, 'e1': 1, 'e2': 15, 'e3': 8, 'e4': 8, 'e5': 1}",
        "at recommended depths: completed in 51 cycles",
    ]


SPEC = [
    {"name": "op_ms_p90", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "ops/s", "better": "higher", "bound": 0.25},
    {"name": "sim_cycles_per_s", "unit": "cycles/s", "better": "higher", "bound": 0.25},
]


def canned_pairs(parent_p90, change_p90, parent_ops, change_ops):
    """Bench result dicts as bench/run.py prints them, one pair per value."""

    def result(p90, ops):
        return {"correct": 1, "attempted": 1, "failed": 0,
                "metrics": {"op_ms_p90": {"value": p90, "unit": "ms"},
                            "ops_per_s": {"value": ops, "unit": "ops/s"}}}

    return [{"parent": result(pp, po), "change": result(cp, co)}
            for pp, cp, po, co in zip(parent_p90, change_p90, parent_ops, change_ops)]


class TestBenchPairs:
    bench_pairs = load_script("bench_pairs")

    def test_quartiles_wins_and_a_met_claim(self):
        parent = [16.0, 15.0, 17.0, 16.5, 15.5, 16.0, 18.0, 15.0, 16.0, 17.0]
        change = [14.0, 14.5, 13.5, 14.0, 16.0, 14.0, 14.5, 13.0, 14.0, 15.0]
        stats = self.bench_pairs.summarize(canned_pairs(parent, change, parent, change), SPEC)
        assert list(stats) == ["op_ms_p90", "ops_per_s"]  # sim_cycles_per_s was not reported
        p90 = stats["op_ms_p90"]
        assert p90["parent_quartiles"] == [15.625, 16.0, 16.875]
        assert p90["change_quartiles"] == [14.0, 14.0, 14.5]
        assert (p90["wins"], p90["pairs"]) == (9, 10)  # pair 5 went the other way
        assert self.bench_pairs.claim_met(p90)
        # the same numbers on a higher-is-better metric are a loss in 9 pairs
        assert stats["ops_per_s"]["wins"] == 1
        assert not self.bench_pairs.claim_met(stats["ops_per_s"])
        lines = self.bench_pairs.format_summary("detect-eval", stats, "op_ms_p90")
        assert lines[0].startswith("detect-eval op_ms_p90: parent 16 [15.625, 16.875]")
        assert "change won 9/10 (lower is better)" in lines[0]
        assert lines[2].startswith("detect-eval claim op_ms_p90: met (won 9/10, medians 16 -> 14 "
                                   "(-12.5%), parent IQR 1.25)")

    @pytest.mark.parametrize("parent, change, shown", [
        ([16.0, 15.0, 17.0], [14.0, 14.5, 13.5], "-12.5%"),  # medians 16 -> 14
        ([10.0, 10.2, 9.8], [11.0, 11.3, 10.9], "+10.0%"),
        ([2.0, 2.0, 2.0], [2.0, 2.0, 2.0], "+0.0%"),
        ([-4.0, -4.0, -4.0], [-3.0, -3.0, -3.0], "+25.0%"),  # in per cent of |parent|
        ([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], "n/a"),
    ])
    def test_each_metric_prints_its_median_change(self, parent, change, shown):
        stats = self.bench_pairs.summarize(canned_pairs(parent, change, parent, change), SPEC)
        lines = self.bench_pairs.format_summary("w", stats)
        assert len(lines) == 2
        for line, unit in zip(lines, ("ms", "ops/s")):
            assert f" {unit}  median change {shown}  change won " in line

    def test_ties_count_for_neither_side(self):
        stats = self.bench_pairs.summarize(canned_pairs([5.0] * 10, [5.0] * 10, [1.0] * 10,
                                                        [1.0] * 10), SPEC)
        assert stats["op_ms_p90"]["wins"] == stats["ops_per_s"]["wins"] == 0

    @pytest.mark.parametrize(
        "parent, change",
        [
            ([10.0] * 9, [9.0] * 9),  # won every pair, but fewer than ten
            ([10.0] * 8 + [9.0, 9.0], [9.0] * 10),  # 8 of 10 won, 2 tied
            ([8.0, 12.0] * 5, [7.9, 11.9] * 5),  # won every pair, inside the parent's IQR
        ],
        ids=["nine_pairs", "eight_wins", "within_iqr"],
    )
    def test_claim_not_met(self, parent, change):
        stats = self.bench_pairs.summarize(canned_pairs(parent, change, parent, change), SPEC)
        assert not self.bench_pairs.claim_met(stats["op_ms_p90"])
        assert self.bench_pairs.format_summary("w", stats, "op_ms_p90")[2].startswith(
            "w claim op_ms_p90: not met")

    def test_unmeasured_claim_reported(self):
        stats = self.bench_pairs.summarize(canned_pairs([1.0], [1.0], [1.0], [1.0]), SPEC)
        assert self.bench_pairs.format_summary("w", stats, "map")[-1] == "w claim map: not measured"


class TestNoRegressionVerdicts:
    bench_pairs = load_script("bench_pairs")

    def verdicts(self, parent, change):
        """Verdicts on op_ms_p90 (lower is better) and ops_per_s (higher),
        both fed the same values."""
        stats = self.bench_pairs.summarize(canned_pairs(parent, change, parent, change), SPEC)
        return stats["op_ms_p90"]["verdict"], stats["ops_per_s"]["verdict"]

    def test_clean_pair_is_no_worse(self):
        parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0]
        change = [10.5, 10.4, 10.6, 10.3, 10.5, 10.4]  # 5 % up: inside the 0.25 bound
        assert self.verdicts(parent, change) == ("no worse", "no worse")
        lines = self.bench_pairs.format_summary("w", self.bench_pairs.summarize(
            canned_pairs(parent, change, parent, change), SPEC))
        assert lines[0].endswith("change won 0/6 (lower is better)  no worse at bound 0.25")

    def test_regression_past_the_bound(self):
        parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0]
        # 30 % up is worse on the lower-is-better metric, a gain on ops_per_s;
        # 30 % down the other way round
        assert self.verdicts(parent, [v * 1.3 for v in parent]) == ("worse", "no worse")
        assert self.verdicts(parent, [v * 0.7 for v in parent]) == ("no worse", "worse")

    def test_wide_spread_is_unresolved(self):
        parent = [10.0, 10.0, 10.0, 10.0, 10.0, 10.0]
        change = [6.0, 14.0, 7.0, 13.0, 8.0, 12.0]  # IQR 5.5 on a median of 10
        assert self.verdicts(parent, change) == ("unresolved", "unresolved")

    def test_wide_spread_resolved_when_every_run_wins(self):
        parent = [20.0, 30.0, 20.0, 30.0]
        change = [10.0, 19.0, 10.0, 19.0]  # wide on both sides, every change run lower
        assert self.verdicts(parent, change) == ("no worse", "unresolved")

    def test_failed_op_share_per_side(self):
        pairs = canned_pairs([1.0] * 3, [1.0] * 3, [1.0] * 3, [1.0] * 3)
        for pair in pairs:
            pair["change"].update(attempted=40, failed=10)
        assert self.bench_pairs.format_failed("sort-crowd", pairs) == (
            "sort-crowd failed-op share: parent 0 (0 of 3), change 0.25 (30 of 120)")


class TestBenchPairsExitStatus:
    """main() on canned runs: run_bench hands out the parent's and the
    change's results in the order main asks for them."""

    def exit_status(self, tmp_path, monkeypatch, parent, change, change_failed=0):
        bench_pairs = load_script("bench_pairs")
        results = {side: [pair[side] for pair in canned_pairs(parent, change, parent, change)]
                   for side in ("parent", "change")}
        for result in results["change"]:
            result.update(attempted=4, failed=change_failed)
        monkeypatch.setattr(bench_pairs, "run_bench",
                            lambda checkout, *_: results[checkout.name].pop(0))
        for side in results:
            (tmp_path / side).mkdir()
        (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": SPEC}))
        monkeypatch.setattr(sys, "argv", [
            "bench_pairs.py", str(tmp_path / "parent"), str(tmp_path / "change"), "--workload",
            "w", "--pairs", str(len(parent)), "--seed", "1", "--seconds", "1"])
        return bench_pairs.main()

    def test_no_worse_pairs_exit_zero(self, tmp_path, monkeypatch, capsys):
        parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0]
        assert self.exit_status(tmp_path, monkeypatch, parent, [v * 1.05 for v in parent]) == 0
        assert "w failed-op share: parent 0 (0 of 6), change 0 (0 of 24)" in capsys.readouterr().out

    def test_a_worse_verdict_exits_one(self, tmp_path, monkeypatch):
        parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0]
        assert self.exit_status(tmp_path, monkeypatch, parent, [v * 1.3 for v in parent]) == 1

    def test_a_higher_failed_op_share_exits_one(self, tmp_path, monkeypatch):
        parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0]
        assert self.exit_status(tmp_path, monkeypatch, parent, parent, change_failed=1) == 1


# bench/run.py of a temporary checkout: one result line per run, counted in
# runs.txt, until the run numbered by FAIL_ON exits 1
FAKE_BENCH = """import json, pathlib, sys
count = pathlib.Path("runs.txt")
runs = int(count.read_text()) + 1 if count.exists() else 1
count.write_text(str(runs))
if runs == FAIL_ON:
    sys.exit("bench broke")
print(json.dumps({"correct": 1, "attempted": 1, "failed": 0,
                  "metrics": {"ops_per_s": {"value": 10.0, "unit": "ops/s"}}}))
"""


def test_bench_pairs_keeps_the_pairs_before_a_failed_run(tmp_path, monkeypatch, capsys):
    """The change's second run (pair 2, change first) exits 1: main exits 2
    naming that run, and --out holds pair 1."""
    for side, fail_on in (("parent", 0), ("change", 2)):
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "bench" / "run.py").write_text(
            FAKE_BENCH.replace("FAIL_ON", str(fail_on)))
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": SPEC}))
    out = tmp_path / "runs.json"
    monkeypatch.setattr(sys, "argv", [
        "bench_pairs.py", str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w",
        "--pairs", "3", "--seed", "1", "--seconds", "1", "--out", str(out)])
    assert load_script("bench_pairs").main() == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["pair 1 w: parent then change",
                   "bench run failed: workload w, change side, pair 2: exit 1", "bench broke"]
    runs = json.loads(out.read_text())
    assert list(runs) == ["w"] and len(runs["w"]) == 1
    assert (tmp_path / "parent" / "runs.txt").read_text() == "1"
