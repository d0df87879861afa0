"""Tests of the benchmark's own machinery:  python3 -m pytest perfbench -q"""

import random
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import speed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_union_of_clipped_children():
    # 0: root [0, 100]
    # 1: child [10, 30]          self 20
    # 2: child [20, 50]          overlaps 1; has grandchild 4
    # 3: child [90, 120]         runs past the root's end
    # 4: grandchild [25, 35]     of 2
    start = [0, 10, 20, 90, 25]
    end = [100, 30, 50, 120, 35]
    parent = [-1, 0, 0, 0, 2]
    # root: children cover [10, 50] and [90, 100] -> 50 of 100
    assert spans.self_times(start, end, parent) == [50, 20, 20, 30, 10]


def test_self_time_of_leaf_and_nested_chain():
    start, end, parent = [0, 1, 2], [10, 9, 8], [-1, 0, 1]
    assert spans.self_times(start, end, parent) == [2, 2, 6]


def _fake_package():
    pkg = types.ModuleType("fakepkg")
    low = types.ModuleType("fakepkg.low")
    high = types.ModuleType("fakepkg.high")

    def leaf(x):
        return x + 1

    def outer(x):
        return high.leaf(x) * 2  # looked up by the name `high` imported

    low.leaf = leaf
    high.leaf = leaf
    high.outer = outer
    pkg.leaf = leaf
    return [pkg, low, high], leaf, outer


def test_install_wraps_every_binding_and_restore_puts_originals_back():
    modules, leaf, outer = _fake_package()
    pkg, low, high = modules
    seen = []
    recorder = spans.Recorder()
    patch = spans.install(recorder, [
        (low, "leaf", "low.leaf", None, lambda _, r: seen.append(r)),
        (high, "outer", "high.outer", None, None),
    ], modules)
    assert pkg.leaf is not leaf and high.leaf is not leaf and low.leaf is not leaf
    assert high.outer(3) == 8
    assert seen == [4]
    summary = spans.summarize(recorder)
    assert summary["low.leaf"]["calls"] == 1 and summary["high.outer"]["calls"] == 1
    assert list(recorder.parent) == [-1, 0]
    try:
        spans.assert_untraced(modules)
    except AssertionError:
        pass
    else:
        raise AssertionError("installed wrappers went unnoticed")
    patch.restore()
    spans.assert_untraced(modules)
    assert pkg.leaf is leaf and high.leaf is leaf and low.leaf is leaf
    assert high.outer is outer


def test_span_closes_when_the_call_raises():
    recorder = spans.Recorder()

    def boom():
        raise ValueError("x")

    wrapped = recorder.wrap("boom", boom)
    try:
        wrapped()
    except ValueError:
        pass
    assert len(recorder.start) == 1 and recorder.end[0] >= recorder.start[0] > 0
    assert recorder._stack == [-1]


def test_trimmed_mean_drops_both_tails():
    values = [100.0] + [1.0] * 8 + [-50.0]
    assert speed.trimmed_mean(values) == 1.0
    assert speed.trimmed_mean([2.0, 4.0]) == 3.0


def test_sampler_times_the_reference_and_puts_the_handler_back():
    import signal
    import time

    before = signal.getsignal(signal.SIGPROF)
    sampler = speed.Sampler()
    sampler.start()
    end = time.thread_time() + 0.3
    while time.thread_time() < end:
        sum(range(1000))
    samples = sampler.stop()
    assert signal.getsignal(signal.SIGPROF) == before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert len(samples) >= 3 and all(s > 0 for s in samples)
    assert abs(sampler.spent - sum(samples)) < 1e-9
    assert sampler.scale() == speed.REFERENCE_S / speed.trimmed_mean(samples)


def test_judge_fails_operations_with_bad_checks_or_digests():
    ops = [{"key": "0/a", "ok": True, "digests": {"0/a": "x"}},
           {"key": "0/b", "ok": True, "digests": {"0/b": "y"}},
           {"key": "0/c", "ok": False, "digests": {}},
           {"key": "1/a", "ok": True, "digests": {"1/a": "z"}}]
    failed, compared = run.judge(ops, {"0/a": "x", "0/b": "other"})
    assert failed == ["0/b", "0/c"] and compared == 2


def test_generators_are_seeded_and_regular():
    a = workloads.random_regular_edges(14, 4, random.Random(1))
    b = workloads.random_regular_edges(14, 4, random.Random(1))
    assert a == b and len(a) == 28 and len(set(a)) == 28
    degree = {}
    for u, v in a:
        assert u < v
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    assert set(degree.values()) == {4} and len(degree) == 14


def test_cubic_family_and_statistic_match_the_package():
    from sandwichlab.graphs import SimpleGraph
    from sandwichlab.switching import six_cycle_statistic

    family = workloads.regular_edge_lists(8, 3)
    assert len(family) == len(set(family)) == 19355
    wprime = frozenset({2, 5, 7})
    for edges in family[::97]:
        g = SimpleGraph(8, edges)
        for mode in ("two-in", "one-in"):
            assert (workloads.six_statistic(edges, wprime, mode)
                    == six_cycle_statistic(g, sorted(wprime), mode))
