"""Incremental remap-engine equivalence tests.

The rewritten greedy descent evaluates swaps against per-register
incident-edge buckets with a maintained delta table; these tests pin the
contract that made that rewrite safe: on exact (integer) edge weights,
every incremental quantity equals the corresponding full recomputation —
the swap delta equals a difference of two :func:`_perm_cost` evaluations,
and whole descents reproduce the retained O(E)-per-candidate reference
bit for bit, on random graphs and on bundled workloads alike.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import estimate_block_frequencies
from repro.regalloc import iterated_allocate
from repro.regalloc.remap import (
    _NumpyDeltaEngine,
    _PyDeltaEngine,
    _WEIGHT_SCALE,
    _edge_list,
    _greedy_descent_reference,
    _make_engine,
    _perm_cost,
    _start_perms,
)
from repro.workloads import get_workload

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

REG_N, DIFF_N = 8, 4


@st.composite
def random_graph(draw):
    """A random integer-weighted edge list over REG_N registers."""
    n_edges = draw(st.integers(0, 24))
    edges = []
    seen = set()
    for _ in range(n_edges):
        u = draw(st.integers(0, REG_N - 1))
        v = draw(st.integers(0, REG_N - 1))
        if u == v or (u, v) in seen:
            continue
        seen.add((u, v))
        edges.append((u, v, draw(st.integers(1, 1000))))
    return edges


@st.composite
def graph_and_perm(draw):
    edges = draw(random_graph())
    perm = draw(st.permutations(list(range(REG_N))))
    return edges, list(perm)


class TestSwapDelta:
    @given(graph_and_perm(),
           st.integers(0, REG_N - 1), st.integers(0, REG_N - 1))
    @settings(**COMMON)
    def test_incremental_delta_equals_full_recomputation(self, gp, a, b):
        """The bucket-based swap delta is exactly the difference of two
        full cost evaluations (the satellite property)."""
        edges, perm = gp
        engine = _PyDeltaEngine(edges, REG_N, DIFF_N, list(range(REG_N)))
        before = _perm_cost(perm, edges, REG_N, DIFF_N)
        swapped = list(perm)
        swapped[a], swapped[b] = swapped[b], swapped[a]
        after = _perm_cost(swapped, edges, REG_N, DIFF_N)
        assert engine.swap_delta(perm, a, b) == before - after

    @given(graph_and_perm(),
           st.integers(0, REG_N - 1), st.integers(0, REG_N - 1))
    @settings(**COMMON)
    def test_swap_delta_leaves_perm_unchanged(self, gp, a, b):
        edges, perm = gp
        engine = _PyDeltaEngine(edges, REG_N, DIFF_N, list(range(REG_N)))
        snapshot = list(perm)
        engine.swap_delta(perm, a, b)
        assert perm == snapshot


class TestDescentEquivalence:
    @given(graph_and_perm())
    @settings(**COMMON)
    def test_python_engine_matches_reference(self, gp):
        edges, perm = gp
        free = list(range(REG_N))
        p_ref = list(perm)
        c_ref = _greedy_descent_reference(p_ref, edges, REG_N, DIFF_N, free)
        engine = _PyDeltaEngine(edges, REG_N, DIFF_N, free)
        assert engine.descend_all([perm]) == [(c_ref, p_ref)]

    @given(graph_and_perm())
    @settings(**COMMON)
    def test_numpy_engine_matches_python_engine(self, gp):
        edges, perm = gp
        free = list(range(REG_N))
        py = _PyDeltaEngine(edges, REG_N, DIFF_N, free).descend_all([perm])
        np_ = _NumpyDeltaEngine(edges, REG_N, DIFF_N, free).descend_all([perm])
        assert py == np_

    @given(graph_and_perm())
    @settings(**COMMON)
    def test_descent_cost_equals_perm_cost_of_result(self, gp):
        """The incrementally maintained cost is exactly the full cost of
        the final permutation — no drift accumulates."""
        edges, perm = gp
        free = list(range(REG_N))
        [(cost, result)] = _make_engine(edges, REG_N, DIFF_N,
                                        free).descend_all([perm])
        assert cost == _perm_cost(result, edges, REG_N, DIFF_N)

    def test_pinned_free_subset_matches_reference(self):
        edges = [(0, 1, 5), (1, 2, 3), (2, 3, 7), (3, 0, 2), (1, 3, 4)]
        free = [0, 2, 3]  # register 1 pinned
        for start in ([0, 1, 2, 3], [3, 1, 0, 2], [2, 1, 3, 0]):
            p_ref = list(start)
            c_ref = _greedy_descent_reference(p_ref, edges, 4, 2, free)
            engine = _make_engine(edges, 4, 2, free)
            assert engine.descend_all([start]) == [(c_ref, p_ref)]


def test_huge_weights_use_python_engine():
    """A weight past int64-safe accumulation (a block run ~1.5M times
    under profile weights) routes to the arbitrary-precision engine,
    which still reproduces the reference descent."""
    edges = [(0, 1, 1 << 41), (1, 2, 3), (2, 3, 1 << 40), (3, 0, 2)]
    free = [0, 1, 2, 3]
    engine = _make_engine(edges, 4, 2, free)
    assert isinstance(engine, _PyDeltaEngine)
    p_ref = [3, 1, 0, 2]
    c_ref = _greedy_descent_reference(p_ref, edges, 4, 2, free)
    assert engine.descend_all([[3, 1, 0, 2]]) == [(c_ref, p_ref)]


@pytest.mark.parametrize("name", ["sha", "crc32", "stringsearch"])
def test_workload_descents_match_reference(name):
    """Whole restart schedules on bundled kernels: the engine the search
    actually uses returns the reference's (cost, permutation) for every
    start — including stringsearch, whose fractional frequency shares
    made float arithmetic noisy before weights were scaled to integers."""
    fn = iterated_allocate(get_workload(name).function(), 12).fn
    freq = estimate_block_frequencies(fn)
    edges = _edge_list(fn, 12, "src_first", freq)
    free = list(range(12))
    starts = _start_perms(list(range(12)), free, 10, seed=5)
    reference = []
    for start in starts:
        p_ref = list(start)
        reference.append(
            (_greedy_descent_reference(p_ref, edges, 12, 8, free), p_ref))
    assert _make_engine(edges, 12, 8, free).descend_all(starts) == reference


class TestEdgeList:
    def test_parallel_edges_collapsed(self):
        """(u, v) appears at most once; weights are summed, not repeated."""
        fn = iterated_allocate(get_workload("sha").function(), 12).fn
        freq = estimate_block_frequencies(fn)
        edges = _edge_list(fn, 12, "src_first", freq)
        keys = [(u, v) for u, v, _ in edges]
        assert len(keys) == len(set(keys))

    def test_weights_are_scaled_integers(self):
        fn = iterated_allocate(get_workload("crc32").function(), 12).fn
        freq = estimate_block_frequencies(fn)
        for _, _, w in _edge_list(fn, 12, "src_first", freq):
            assert isinstance(w, int)
            assert w > 0

    def test_scaled_cost_matches_adjacency_cost(self):
        """Descaled _edge_list costs agree with the float adjacency-graph
        cost model to rounding."""
        from repro.analysis import build_adjacency
        from repro.ir.instr import Reg

        fn = iterated_allocate(get_workload("sha").function(), 12).fn
        freq = estimate_block_frequencies(fn)
        graph = build_adjacency(fn, freq=freq)
        edges = _edge_list(fn, 12, "src_first", freq)
        identity = list(range(12))
        assignment = {
            r: r.id for r in graph.nodes()
            if not r.virtual and r.cls == "int" and r.id < 12
        }
        scaled = _perm_cost(identity, edges, 12, 8) / _WEIGHT_SCALE
        assert scaled == pytest.approx(graph.cost(assignment, 12, 8))
