"""Per-item problem binding through the dispatch path.

The scoring fabric (:mod:`repro.fabric`) fuses batches from campaigns
with *different* ``(target, non_targets)`` problems into one dispatch.
These tests cover the plumbing underneath it: ``register_problem`` /
``score_fused`` on the provider, workers resolving a ``WorkItem``'s
``problem_id`` (including self-registration from the item's spec), and
the degradation path scoring fused items serially with the right
problem.
"""

import numpy as np
import pytest

from repro.ga.fitness import SerialScoreProvider
from repro.parallel import MultiprocessScoreProvider
from repro.parallel.messages import WorkItem
from repro.resilience import ChaosSpec


@pytest.fixture()
def two_problems(tiny_world, tiny_problem):
    target, non_targets = tiny_problem
    other = [n for n in tiny_world.non_targets_for(target, limit=12) if n not in non_targets][0]
    other_nts = tiny_world.non_targets_for(other, limit=8)
    return (target, non_targets), (other, other_nts)


def _candidates(rng, n, length=20):
    return [rng.integers(0, 20, size=length).astype(np.uint8) for _ in range(n)]


def test_work_item_problem_validation():
    with pytest.raises(ValueError, match="problem_id must be >= 0"):
        WorkItem(0, b"x", problem_id=-1)
    with pytest.raises(ValueError, match="requires a problem_id"):
        WorkItem(0, b"x", problem=("T", ("A",)))


def test_register_problem_validates(tiny_engine, tiny_problem):
    target, non_targets = tiny_problem
    with MultiprocessScoreProvider(
        tiny_engine, target, non_targets, num_workers=1, timeout=120.0
    ) as provider:
        with pytest.raises(ValueError, match="also appears"):
            provider.register_problem(target, [target, *non_targets])
        with pytest.raises(KeyError):
            provider.register_problem("NOT-A-PROTEIN", non_targets)
        a = provider.register_problem(target, non_targets)
        b = provider.register_problem(non_targets[0], [target])
        assert a != b


def test_score_fused_mixed_problems_matches_serial(
    tiny_engine, two_problems, rng
):
    (target, non_targets), (other, other_nts) = two_problems
    arrays = _candidates(rng, 6)
    ref_a = SerialScoreProvider(tiny_engine, target, non_targets).scores(
        [a.copy() for a in arrays]
    )
    ref_b = SerialScoreProvider(tiny_engine, other, other_nts).scores(
        [a.copy() for a in arrays]
    )
    with MultiprocessScoreProvider(
        tiny_engine, target, non_targets, num_workers=2, timeout=120.0
    ) as provider:
        pid_a = provider.register_problem(target, non_targets)
        pid_b = provider.register_problem(other, other_nts)
        # Interleave the two problems over the *same* candidate bytes —
        # scores must differ by problem, not by payload.
        fused = [a for pair in zip(arrays, arrays) for a in pair]
        pids = [pid_a, pid_b] * len(arrays)
        got = provider.score_fused(fused, None, pids)
    assert got[0::2] == ref_a
    assert got[1::2] == ref_b


def test_score_fused_validates(tiny_engine, tiny_problem, rng):
    target, non_targets = tiny_problem
    arrays = _candidates(rng, 2)
    with MultiprocessScoreProvider(
        tiny_engine, target, non_targets, num_workers=1, timeout=120.0
    ) as provider:
        pid = provider.register_problem(target, non_targets)
        with pytest.raises(ValueError, match="length"):
            provider.score_fused(arrays, None, [pid])
        with pytest.raises(ValueError, match="unregistered"):
            provider.score_fused(arrays, None, [pid, 999])


def test_late_registered_problem_reaches_running_workers(
    tiny_engine, two_problems, rng
):
    # Register the second problem only after the pool has started: the
    # workers must self-register it from the item's spec mid-stream.
    (target, non_targets), (other, other_nts) = two_problems
    arrays = _candidates(rng, 3)
    ref = SerialScoreProvider(tiny_engine, other, other_nts).scores(
        [a.copy() for a in arrays]
    )
    with MultiprocessScoreProvider(
        tiny_engine, target, non_targets, num_workers=1, timeout=120.0
    ) as provider:
        provider.scores([a.copy() for a in arrays])  # pool is now running
        pid = provider.register_problem(other, other_nts)
        got = provider.score_fused(arrays, None, [pid] * len(arrays))
    assert got == ref


@pytest.mark.faults
def test_fused_items_degrade_with_their_problem(
    tiny_engine, two_problems, rng
):
    # Permanent pool loss: fused items must be re-scored serially in the
    # master against *their own* problem, not the context default.
    (target, non_targets), (other, other_nts) = two_problems
    arrays = _candidates(rng, 4)
    ref = SerialScoreProvider(tiny_engine, other, other_nts).scores(
        [a.copy() for a in arrays]
    )
    spec = ChaosSpec().with_worker_crash(on_item=0)
    with MultiprocessScoreProvider(
        tiny_engine,
        target,
        non_targets,
        num_workers=1,
        max_retries=1,
        poll_interval=0.05,
        timeout=120.0,
        faults=spec.fault_plan(),
    ) as provider:
        pid = provider.register_problem(other, other_nts)
        got = provider.score_fused(arrays, None, [pid] * len(arrays))
        assert provider.fault_stats()["degraded_items"] > 0
    assert got == ref
