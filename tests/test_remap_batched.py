"""The batched remap descent: ``descend_all`` runs every restart of a
search at once and must return, per start, exactly what one descent from
that start alone returns — on random edge sets with pinned registers, in
the degenerate zero-edge and single-pair cases, across restart chunk
boundaries, and on the pure-Python route for huge weights.  The search
built on it returns the identical :class:`RemapResult` for any ``jobs``.
"""

import random

import pytest

import repro.regalloc.remap as remap
from repro.analysis import estimate_block_frequencies
from repro.regalloc import differential_remap, iterated_allocate
from repro.regalloc.remap import (
    _NumpyDeltaEngine,
    _PyDeltaEngine,
    _edge_list,
    _greedy_descent_reference,
    _make_engine,
    _start_perms,
)
from repro.workloads import get_workload


def _reference(starts, edges, reg_n, diff_n, free):
    out = []
    for start in starts:
        perm = list(start)
        out.append((_greedy_descent_reference(perm, edges, reg_n, diff_n,
                                              free), perm))
    return out


def _random_case(seed):
    rng = random.Random(seed)
    reg_n = rng.randint(2, 10)
    diff_n = rng.randint(1, reg_n)
    weights = {}
    for _ in range(rng.randint(0, 30)):
        weights[rng.randrange(reg_n), rng.randrange(reg_n)] = \
            rng.randint(1, 1000)
    edges = [(u, v, w) for (u, v), w in weights.items()]
    pinned = set(rng.sample(range(reg_n), rng.randint(0, reg_n // 2)))
    free = [r for r in range(reg_n) if r not in pinned]
    starts = _start_perms(list(range(reg_n)), free, rng.randint(1, 16), seed)
    return edges, reg_n, diff_n, free, starts


@pytest.mark.parametrize("seed", range(60))
@pytest.mark.parametrize("engine_cls", [_NumpyDeltaEngine, _PyDeltaEngine])
def test_descend_all_equals_per_start_descent(engine_cls, seed):
    edges, reg_n, diff_n, free, starts = _random_case(seed)
    engine = engine_cls(edges, reg_n, diff_n, free)
    batched = engine.descend_all(starts)
    assert batched == [engine.descend_all([s])[0] for s in starts]
    assert batched == _reference(starts, edges, reg_n, diff_n, free)


def test_descend_all_leaves_starts_untouched():
    edges, reg_n, diff_n, free, starts = _random_case(7)
    snapshot = [list(s) for s in starts]
    for engine_cls in (_NumpyDeltaEngine, _PyDeltaEngine):
        engine_cls(edges, reg_n, diff_n, free).descend_all(starts)
        assert starts == snapshot


@pytest.mark.parametrize("engine_cls", [_NumpyDeltaEngine, _PyDeltaEngine])
@pytest.mark.parametrize("free", [[], [2], [0, 1, 2, 3]])
def test_zero_edges(engine_cls, free):
    starts = _start_perms([0, 1, 2, 3], free, 5, 0)
    results = engine_cls([], 4, 2, free).descend_all(starts)
    assert results == [(0, list(s)) for s in starts]


@pytest.mark.parametrize("engine_cls", [_NumpyDeltaEngine, _PyDeltaEngine])
def test_single_pair(engine_cls):
    """Two free registers: one candidate swap, taken only if it helps."""
    edges = [(0, 1, 5), (1, 2, 3), (2, 3, 7), (3, 0, 2)]
    free = [1, 3]
    starts = [[0, 1, 2, 3], [0, 3, 2, 1]]
    results = engine_cls(edges, 4, 2, free).descend_all(starts)
    assert results == _reference(starts, edges, 4, 2, free)


@pytest.mark.parametrize("restarts", [1, 4, 5, 6, 13])
def test_restart_chunks(monkeypatch, restarts):
    """Restarts past the table budget run in chunks of five; results do
    not move."""
    fn = iterated_allocate(get_workload("crc32").function(), 8).fn
    edges = _edge_list(fn, 8, "src_first", estimate_block_frequencies(fn))
    free = list(range(8))
    starts = _start_perms(list(range(8)), free, restarts, 3)
    whole = _NumpyDeltaEngine(edges, 8, 4, free).descend_all(starts)
    engine = _NumpyDeltaEngine(edges, 8, 4, free)
    monkeypatch.setattr(remap, "_DESCENT_BUDGET", 5 * len(engine.EID))
    assert engine.descend_all(starts) == whole
    assert whole == _reference(starts, edges, 8, 4, free)


def test_huge_weights_take_the_python_route():
    edges = [(0, 1, 1 << 41), (1, 2, 3), (2, 3, 1 << 40), (3, 0, 2),
             (1, 3, 1 << 45)]
    free = [0, 1, 2, 3]
    engine = _make_engine(edges, 4, 2, free)
    assert isinstance(engine, _PyDeltaEngine)
    starts = _start_perms([0, 1, 2, 3], free, 8, 11)
    assert engine.descend_all(starts) == _reference(starts, edges, 4, 2, free)


@pytest.mark.parametrize("name,seed", [("sha", 7), ("crc32", 1),
                                       ("stringsearch", 4)])
def test_jobs_give_identical_remap_results(name, seed):
    fn = iterated_allocate(get_workload(name).function(), 12).fn
    serial = differential_remap(fn, 12, 8, restarts=12, seed=seed, jobs=1)
    parallel = differential_remap(fn, 12, 8, restarts=12, seed=seed, jobs=2)
    assert serial.permutation == parallel.permutation
    assert serial.cost_before == parallel.cost_before
    assert serial.cost_after == parallel.cost_after
    assert serial.restarts == parallel.restarts
    assert str(serial.fn) == str(parallel.fn)


def test_zero_cost_hit_stops_the_fold():
    """A restart that reaches cost 0 ends the search on every path, and
    ``restarts`` counts the descents the fold used, not those computed."""
    fn = iterated_allocate(get_workload("crc32").function(), 8).fn
    results = [differential_remap(fn, 8, 7, restarts=30, seed=s, jobs=j)
               for s in range(4) for j in (1, 2)]
    early = [r for r in results if r.restarts < 30]
    assert early and all(r.cost_after == 0 for r in early)
    for serial, parallel in zip(results[::2], results[1::2]):
        assert (serial.permutation, serial.restarts) == \
            (parallel.permutation, parallel.restarts)
