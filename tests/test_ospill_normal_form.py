"""Optimal spilling's segment normal form against the per-point model.

:func:`per_point_objective` is the Appel-George residence ILP as it was
first written: one binary per live program point, one load and one store
column per charged transition, a capacity row at every point.
``optimal_spill._solve_ilp`` solves the same problem over one binary per
live segment between anchors; both must reach the same optimum.
"""

import pytest

from repro.analysis import compute_liveness
from repro.analysis.frequency import estimate_block_frequencies
from repro.analysis.profile import profile_block_frequencies
from repro.fuzz.gen import FuzzConfig, generate_fuzz_function
from repro.ir import parse_function
from repro.regalloc.optimal_spill import (
    _forced_points,
    _Points,
    apply_residence,
    decide_residence,
    residence_plan_cost,
)
from repro.workloads import MIBENCH

scipy = pytest.importorskip("scipy")

# the allocator-zoo benchmark corpus: generator seeds 0-4 under these knobs
ZOO_CONFIG = FuzzConfig(n_regions=8, loop_depth=2, base_values=14,
                        ops_per_block=8, loop_trip=3, fresh_bias=0.4,
                        call_density=0.25, mem_density=0.25)
ZOO_SEEDS = range(5)
ZOO_ARGS = (5,)


def per_point_objective(fn, k, freq, load_cost=1.0, store_cost=1.0):
    """Optimal objective of the per-point formulation (``None`` when it
    is infeasible)."""
    import numpy as np
    from scipy import sparse
    from scipy.optimize import Bounds, LinearConstraint, milp

    pts = _Points.build(fn, compute_liveness(fn))
    forced = _forced_points(fn)
    x_index = {}
    for (block, j), live in sorted(pts.live_at.items()):
        for v in sorted(live):
            x_index[(v, block, j)] = len(x_index)
    n_x = len(x_index)
    if n_x == 0:
        return 0.0
    transitions = []  # (x_pre, x_post, block weight)
    for b in fn.blocks:
        w = freq.get(b.name, 1.0)
        for j, instr in enumerate(b.instrs):
            defs = set(instr.defs())
            for v in sorted(pts.live_at[(b.name, j)]):
                if v in pts.live_at[(b.name, j + 1)] and v not in defs:
                    transitions.append((x_index[(v, b.name, j)],
                                        x_index[(v, b.name, j + 1)], w))
    n_t = len(transitions)
    n_vars = n_x + 2 * n_t
    c = np.zeros(n_vars)
    rows, cols, vals, lb, ub = [], [], [], [], []

    def add_row(entries, lo, hi):
        for col, val in entries:
            rows.append(len(lb))
            cols.append(col)
            vals.append(val)
        lb.append(lo)
        ub.append(hi)

    for (block, j), live in pts.live_at.items():
        if live:
            add_row([(x_index[(v, block, j)], 1.0) for v in sorted(live)],
                    -np.inf, float(k - pts.phys[(block, j)]))
    for t, (pre, post, w) in enumerate(transitions):
        load, store = n_x + t, n_x + n_t + t
        c[load] = w * load_cost
        c[store] = w * store_cost
        add_row([(post, 1.0), (pre, -1.0), (load, -1.0)], -np.inf, 0.0)
        add_row([(pre, 1.0), (post, -1.0), (store, -1.0)], -np.inf, 0.0)
    succs, _ = fn.cfg()
    for p in fn.blocks:
        for s in succs[p.name]:
            for v in sorted(pts.live_at[(s, 0)]):
                add_row([(x_index[(v, p.name, len(p.instrs))], 1.0),
                         (x_index[(v, s, 0)], -1.0)], 0.0, 0.0)
    var_lb = np.zeros(n_vars)
    for key in forced:
        if key in x_index:
            var_lb[x_index[key]] = 1.0
    integrality = np.zeros(n_vars)
    integrality[:n_x] = 1
    res = milp(
        c=c,
        constraints=LinearConstraint(
            sparse.csr_matrix((vals, (rows, cols)),
                              shape=(len(lb), n_vars)),
            np.array(lb), np.array(ub)),
        bounds=Bounds(var_lb, np.ones(n_vars)),
        integrality=integrality,
    )
    if not res.success:
        return None
    return float(res.fun)


def _assert_same_optimum(fn, k, freq):
    plan = decide_residence(fn, k, freq)
    oracle = per_point_objective(fn, k, freq)
    if oracle is None:
        assert plan.solver == "greedy"
        return
    assert plan.solver == "ilp"
    assert plan.objective == pytest.approx(oracle, rel=1e-9, abs=1e-9)
    assert residence_plan_cost(fn, plan, freq) == plan.objective
    _assert_normal_form(fn, plan)


def _assert_normal_form(fn, plan):
    """Residence turns on only entering a forced point or the block exit,
    and turns off only leaving a forced point or the block entry."""
    forced = _forced_points(fn)
    for v, vecs in plan.residence.items():
        for b in fn.blocks:
            vec = vecs.get(b.name)
            if vec is None:
                continue
            n = len(b.instrs)
            for j in range(n):
                if v in b.instrs[j].defs():
                    continue  # a definition starts a fresh segment
                if vec[j + 1] and not vec[j]:
                    assert j + 1 == n or (v, b.name, j + 1) in forced, \
                        f"{fn.name}: reload of {v} at {b.name}:{j} early"
                if vec[j] and not vec[j + 1]:
                    assert j == 0 or (v, b.name, j) in forced, \
                        f"{fn.name}: store of {v} at {b.name}:{j} late"


def _profile(fn, args):
    return profile_block_frequencies(fn, args)


def _static(fn, args):
    return estimate_block_frequencies(fn)


@pytest.mark.parametrize("weights", [_profile, _static],
                         ids=["profile", "static"])
@pytest.mark.parametrize("k", [7, 8, 12])
@pytest.mark.parametrize("workload", MIBENCH, ids=lambda w: w.name)
def test_mibench_same_optimum(workload, k, weights):
    fn = workload.function()
    _assert_same_optimum(fn, k, weights(fn, tuple(workload.default_args)))


@pytest.mark.parametrize("seed", ZOO_SEEDS)
def test_zoo_same_optimum(seed):
    fn = generate_fuzz_function(seed, ZOO_CONFIG)
    _assert_same_optimum(fn, 8, profile_block_frequencies(fn, ZOO_ARGS))


def test_no_over_pressure_skips_the_solver(sum_fn, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("milp called without over-pressure")

    monkeypatch.setattr("scipy.optimize.milp", refuse)
    plan = decide_residence(sum_fn, 4)
    assert plan.solver == "ilp"
    assert plan.spilled == set()
    assert plan.objective == 0.0


def test_model_is_smaller_than_per_point(monkeypatch):
    fn = generate_fuzz_function(0, ZOO_CONFIG)
    seen = []
    import scipy.optimize as so
    real = so.milp

    def spy(c, **kwargs):
        seen.append(len(c))
        return real(c, **kwargs)

    monkeypatch.setattr(so, "milp", spy)
    decide_residence(fn, 8)
    pts = _Points.build(fn, compute_liveness(fn))
    per_point_columns = sum(len(live) for live in pts.live_at.values())
    assert seen and seen[0] * 2 < per_point_columns


# the hot block peaks at 11 live values; the cold block (frequency 0)
# peaks at 8 and keeps v0-v6 live across it
COLD = """
func f(v0, v1, v2, v3, v4):
entry:
    add v5, v0, v1
    add v6, v2, v3
    beq v4, v0, hot
cold:
    add v7, v0, v1
    add v7, v7, v2
    add v7, v7, v7
    add v7, v7, v7
    add v7, v7, v3
    add v7, v7, v0
    add v4, v4, v7
hot:
    add v10, v5, v6
    add v11, v10, v4
    add v12, v11, v10
    add v13, v12, v11
    add v9, v13, v12
    add v9, v9, v11
    add v9, v9, v10
    add v9, v9, v0
    add v9, v9, v1
    add v9, v9, v2
    add v9, v9, v3
    add v9, v9, v5
    add v9, v9, v6
    add v9, v9, v4
    ret v9
"""


@pytest.mark.parametrize("k", [8, 9, 10])
def test_zero_frequency_block_gets_no_spill_code(k):
    # spilling in cold code is free, so only the tie-break keeps the
    # cold block clean wherever its points have room
    fn = parse_function(COLD)
    freq = {b.name: 1.0 for b in fn.blocks}
    freq["cold"] = 0.0
    plan = decide_residence(fn, k, freq)
    assert plan.solver == "ilp" and plan.spilled
    assert plan.objective == pytest.approx(per_point_objective(fn, k, freq))
    split, _ = apply_residence(fn, plan)
    assert not [i for i in split.block("cold").instrs
                if i.op in ("ldslot", "stslot")]


def test_compressed_model_counts_against_max_ilp_vars(pressure_fn):
    assert decide_residence(pressure_fn, 8).solver == "ilp"
    plan = decide_residence(pressure_fn, 8, max_ilp_vars=1)
    assert plan.solver == "greedy"

