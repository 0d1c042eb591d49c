"""evaluate_scenario's seed loop: a fork pool sized to the usable CPUs, or
the plain in-process loop, with the same results either way."""

import concurrent.futures
import dataclasses

import pytest

from motifroles import evaluation
from motifroles.hawkes import SCENARIO_DELTAS, scenario_params

PARAMS = scenario_params(2)
DELTA = SCENARIO_DELTAS[2]


@pytest.fixture()
def pools(monkeypatch):
    """Records every process pool evaluate_scenario starts."""
    started = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, mp_context):
            started.append((max_workers, mp_context.get_start_method()))
            super().__init__(max_workers, mp_context=mp_context)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return started


def _evaluate(monkeypatch, cpus, seeds, min_motifs=10):
    monkeypatch.setattr(evaluation, "usable_cpus", lambda: cpus)
    return evaluation.evaluate_scenario(PARAMS, DELTA, seeds, k=2, min_motifs=min_motifs)


def test_pooled_and_serial_runs_are_equal(monkeypatch, pools):
    seeds = range(3, 7)
    serial = _evaluate(monkeypatch, 1, seeds)
    assert pools == []
    pooled = _evaluate(monkeypatch, 3, seeds)
    assert pools == [(3, "fork")]
    assert pooled == serial
    assert [r.seed for r in pooled.runs] == list(seeds)


def test_workers_never_outnumber_seeds(monkeypatch, pools):
    _evaluate(monkeypatch, 8, [5, 6])
    assert pools == [(2, "fork")]
    _evaluate(monkeypatch, 8, [5])
    assert pools == [(2, "fork")]


def test_failing_seed_raises_the_same_error_in_both_paths(monkeypatch, pools):
    # under today's sampler seed 1 keeps two nodes at 400 motifs and the
    # three seeds after it keep none; either way both paths must agree
    seeds = [1, 4, 0, 7]
    with pytest.raises(ValueError, match=r"^seed \d+: only \d+ nodes") as serial:
        _evaluate(monkeypatch, 1, seeds, min_motifs=400)
    with pytest.raises(ValueError) as pooled:
        _evaluate(monkeypatch, 2, seeds, min_motifs=400)
    assert pools == [(2, "fork")]
    assert str(pooled.value) == str(serial.value)
    assert str(serial.value).count("seed") == 1


def test_a_run_error_names_its_seed_once():
    capped = dataclasses.replace(PARAMS, max_events=1)
    with pytest.raises(RuntimeError, match=r"^seed 3: simulation exceeded max_events$"):
        evaluation.evaluate_run(capped, DELTA, 3)


def test_no_seeds_is_an_error_before_any_pool(monkeypatch, pools):
    with pytest.raises(ValueError, match="need at least one run"):
        _evaluate(monkeypatch, 4, [])
    assert pools == []
