"""Zoo-wide differential test for prefix-trace elision.

Every target in :data:`repro.targets.PROFILES` runs a short campaign at
chain depth 1 (``balanced``, the paper's incremental snapshot) and at
depth 4 (``bandit``) with elision on and off.  Elision is a host-side
performance knob, so both settings must give the same
``stats_checksum``.  Every complete recording stitched from a suffix
run must also equal, byte for byte, the packed site stream of a fully
traced from-root run of the same input.
"""

import pytest

from repro.fuzz.campaign import build_campaign
from repro.fuzz.input import FuzzInput
from repro.perf.macro import stats_checksum
from repro.targets import PROFILES

EXECS = 400


def _campaign(profile, policy, depth, elision):
    handles = build_campaign(profile, policy=policy, seed=5,
                             time_budget=1e9, max_execs=EXECS,
                             max_chain_depth=depth)
    executor = handles.executor
    executor.trace_elision = elision
    stitched = []
    remember = executor.remember_trace

    def remember_and_collect(key, result, replace=True):
        stored = remember(key, result, replace)
        if stored and result.recording.origin:
            stitched.append(executor._recordings[key])
        return stored

    executor.remember_trace = remember_and_collect
    stats = handles.fuzzer.run_campaign()
    return executor, stats_checksum(stats), stitched


@pytest.mark.parametrize("policy,depth", [("balanced", 1), ("bandit", 4)])
@pytest.mark.parametrize("name", sorted(PROFILES))
def test_elision_is_invisible_on_every_target(name, policy, depth):
    profile = PROFILES[name]
    executor, elided, stitched = _campaign(profile, policy, depth, True)
    _, plain, none_stitched = _campaign(profile, policy, depth, False)
    assert elided == plain
    assert not none_stitched  # elision off: suffix runs never record

    executor.trace_elision = False
    for rec in stitched:
        if not rec.complete:
            continue
        executor.finish_snapshot_cycle()
        executor.run_full(FuzzInput(list(rec.ops)))
        assert executor.tracer.last_packed == rec.packed
