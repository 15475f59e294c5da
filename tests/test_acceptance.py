"""Release acceptance suite: one test per criterion, each printing a
pass/fail line with its measured values and runtime.

The heavyweight artifacts (the phantom dataset and one pinned training
run: the white matter network, its masks and the plain-vs-residual
ablation, whose residual variant is the lesion network) are cached inside
wmhseg.acceptance and shared across criteria; criterion 9 repeats the run
once. This module is fastest when run as a whole. Run everything with
`pytest tests/test_acceptance.py -v -s`, or a single criterion by keyword,
e.g. `pytest tests/test_acceptance.py -k metric-oracles`.
"""

import time
from types import SimpleNamespace

import pytest

from wmhseg import acceptance
from wmhseg.training import TrainHistory

_RAN: list[str] = []


@pytest.mark.parametrize(
    "cid,fn", acceptance.CRITERIA, ids=[c[0] for c in acceptance.CRITERIA]
)
def test_criterion(cid, fn):
    t0 = time.time()
    passed, measured, tolerance = fn()
    runtime = time.time() - t0
    _RAN.append(cid)
    line = f"[{'PASS' if passed else 'FAIL'}] {cid} ({runtime:.1f}s) tolerance: {tolerance}"
    print(line)
    assert passed, f"{line}\nmeasured: {measured}"


def test_every_criterion_ran_exactly_once():
    assert _RAN == [cid for cid, _ in acceptance.CRITERIA]


def test_selector_filters_criteria():
    # the rank criterion is cheap: safe to re-execute for filter semantics
    report = acceptance.run_acceptance("rank")
    assert [r.criterion_id for r in report.results] == ["5-rank-paper-inputs"]
    assert report.results[0].runtime_seconds >= 0.0


def test_selector_names_number_id_or_word(monkeypatch, capsys):
    stubs = [(cid, lambda: (True, {}, "stub")) for cid, _ in acceptance.CRITERIA]
    monkeypatch.setattr(acceptance, "CRITERIA", stubs)

    def chosen(selector):
        return [r.criterion_id for r in acceptance.run_acceptance(selector).results]

    assert chosen("io") == ["10-io"]
    assert chosen("10") == ["10-io"]
    assert chosen("1") == ["1-gradients"]
    assert chosen("8-ablation") == ["8-ablation"]
    assert chosen("metric") == ["4-metric-oracles"]
    assert chosen("") == [cid for cid, _ in stubs]
    assert acceptance.main(["metrics"]) != 0
    assert "10-io" in capsys.readouterr().err


def test_end_to_end_wall_counts_training_once(monkeypatch):
    """A cold cache: the pinned run "takes" 100 s on a fake clock and scores
    the two validation cases itself, so the wall reads 100 s and the
    end-to-end Dice is read from the residual variant's `val_cases`."""
    clock = [0.0]

    def advance(seconds, value=None):
        clock[0] += seconds
        return value

    cases = [SimpleNamespace(case_id=f"c{i}", wm_truth=None) for i in range(4)]
    wm_hist = TrainHistory(val_dice=[0.9], iterations=128)
    wmh_hist = TrainHistory(val_dice=[0.9], val_dice_confined=[0.95], iterations=480,
                            val_case_ids=["c1", "c3"])
    val_cases = {"c1": {"dice": 0.91}, "c3": {"dice": 0.97}}
    report = {"variants": {"residual": {"val_cases": val_cases}}}
    pinned = (None, wm_hist, [None] * 4, report, {"residual": (None, wmh_hist)})
    monkeypatch.setattr(acceptance, "time", SimpleNamespace(time=lambda: clock[0]))
    monkeypatch.setattr(acceptance, "_CACHE", {})
    monkeypatch.setattr(acceptance, "phantom_dataset", lambda: cases)
    monkeypatch.setattr(acceptance, "pinned_run", lambda: advance(100.0, pinned))
    monkeypatch.setattr(acceptance, "dice", lambda *a: 0.9)
    passed, measured, _ = acceptance.crit_end_to_end()
    assert measured["wall_seconds_including_training"] == 100.0
    assert measured["end_to_end_wmh_dice_val_cases"] == [0.91, 0.97]
    assert measured["refined_wm_dice_val_cases"] == [0.9, 0.9]
    assert passed
    assert measured["wm_iterations_margin"] == 372
    assert measured["wmh_iterations_margin"] == 20
    assert measured["wmh_val_dice_margin"] == 0.9 - 0.85
    assert measured["wmh_val_dice_confined"] == 0.95
    assert measured["end_to_end_wmh_dice_val_cases_margin"] == 0.91 - 0.85


def test_ablation_reports_each_gate_margin(monkeypatch):
    """The iteration margin is the smaller of the two variants'."""
    def variant(dice, iterations):
        return {"val_summary": {"dice": dice, "f1": 0.5}, "iterations": iterations}

    report = {"variants": {"plain": variant(0.86, 490), "residual": variant(0.95, 480)}}
    monkeypatch.setattr(acceptance, "trained_models", lambda: (None, None, None, report, None))
    passed, measured, _ = acceptance.crit_ablation()
    assert passed
    assert measured["plain_dice_margin"] == 0.86 - 0.85
    assert measured["residual_dice_margin"] == 0.95 - 0.85
    assert (measured["iterations"], measured["iterations_margin"]) == (480, 10)
