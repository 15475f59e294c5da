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

import pytest

from wmhseg import acceptance

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
