"""Optimal spilling solves a tie-free model LP-first.

The residence ILP's objective carries a key below the primary cost's
granularity, so the model, not the solver, breaks ties between plans of
equal cost.  ``_solve_ilp`` takes the
relaxation's vertex when it is integral and branches only when it is
not.  These tests pin the plan to the model: shuffling the columns (each
keeps its key) and solving by branch-and-bound instead of LP-first both
give the same plan.
"""

import sys

import numpy as np
import pytest

from repro.analysis.profile import profile_block_frequencies
from repro.fuzz.gen import generate_fuzz_function
from repro.ir import parse_function
from repro.regalloc.diff_coalesce import differential_coalesce_allocate
from repro.regalloc.optimal_spill import (
    FALLBACK_REASONS,
    decide_residence,
    optimal_spill_allocate,
)
from repro.workloads import MIBENCH
from tests.test_ospill_normal_form import (
    ZOO_ARGS,
    ZOO_CONFIG,
    ZOO_SEEDS,
    _profile,
    _static,
    per_point_objective,
)

scipy = pytest.importorskip("scipy")
import scipy.optimize as so  # noqa: E402


def _fractional(x):
    return bool(np.abs(x - np.round(x)).max() > 1e-6)


def _solving(monkeypatch, perm_seed=None, mip=False, calls=None):
    """Patch ``milp``: permute the columns of every model it receives by a
    seeded shuffle (costs, bounds and integrality travel with their
    column), optionally solve every call as a gap-0 MIP, and record
    ``(integrality, options, x)`` per call in ``calls``."""
    real = so.milp

    def solve(c, *, integrality, constraints, bounds, options):
        if mip:
            integrality = np.ones(len(c))
            options = dict(options, mip_rel_gap=0.0)
        perm = np.arange(len(c))
        if perm_seed is not None:
            perm = np.random.default_rng(perm_seed).permutation(len(c))
        res = real(c[perm], integrality=integrality[perm],
                   constraints=so.LinearConstraint(
                       constraints.A.tocsc()[:, perm],
                       constraints.lb, constraints.ub),
                   bounds=so.Bounds(bounds.lb[perm], bounds.ub[perm]),
                   options=options)
        if res.x is not None:
            x = np.empty_like(res.x)
            x[perm] = res.x
            res.x = x
        if calls is not None:
            calls.append((np.array(integrality), dict(options), res.x))
        return res

    monkeypatch.setattr(so, "milp", solve)


def _one_plan(monkeypatch, fn, k, freq):
    plan = decide_residence(fn, k, freq)
    assert plan.solver == "ilp" and plan.fallback == ""
    if plan.route:
        assert plan.route in ("lp", "branch")
    for perm_seed in (None, 1, 2):
        for mip in (False, True):
            with monkeypatch.context() as m:
                _solving(m, perm_seed, mip)
                other = decide_residence(fn, k, freq)
            assert (other.spilled, other.residence) == \
                (plan.spilled, plan.residence), \
                f"{fn.name} k={k}: shuffle {perm_seed}, mip={mip}"
    oracle = per_point_objective(fn, k, freq)
    assert plan.objective == pytest.approx(oracle, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("weights", [_profile, _static],
                         ids=["profile", "static"])
@pytest.mark.parametrize("k", [7, 8, 12])
@pytest.mark.parametrize("workload", MIBENCH, ids=lambda w: w.name)
def test_mibench_one_plan(monkeypatch, workload, k, weights):
    fn = workload.function()
    _one_plan(monkeypatch, fn, k, weights(fn, tuple(workload.default_args)))


# k = 7 is the budget optimal_spill_allocate retries with
@pytest.mark.parametrize("k", [7, 8])
@pytest.mark.parametrize("seed", ZOO_SEEDS)
def test_zoo_one_plan(monkeypatch, seed, k):
    fn = generate_fuzz_function(seed, ZOO_CONFIG)
    _one_plan(monkeypatch, fn, k, profile_block_frequencies(fn, ZOO_ARGS))


def test_mibench_relaxations_are_integral(monkeypatch):
    calls = []
    _solving(monkeypatch, calls=calls)
    for workload in MIBENCH:
        fn = workload.function()
        freq = profile_block_frequencies(fn, tuple(workload.default_args))
        for k in (7, 8):
            assert decide_residence(fn, k, freq).route in ("", "lp")
    # one relaxation per solved model, never a branch-and-bound call
    assert calls and not any(i.any() for i, _, _ in calls)


def test_fractional_relaxation_branches_with_zero_gap(monkeypatch):
    # the cross-block equalities make this model's relaxation fractional
    fn = generate_fuzz_function(3, ZOO_CONFIG)
    freq = profile_block_frequencies(fn, ZOO_ARGS)
    oracle = per_point_objective(fn, 8, freq)
    calls = []
    _solving(monkeypatch, calls=calls)
    plan = decide_residence(fn, 8, freq)
    assert plan.route == "branch" and plan.solver == "ilp"
    (lp_int, _, lp_x), (mip_int, mip_options, mip_x) = calls
    assert not lp_int.any() and _fractional(lp_x)
    assert mip_int.all() and mip_options["mip_rel_gap"] == 0.0
    assert not _fractional(mip_x)
    assert plan.objective == pytest.approx(oracle)


# ----------------------------------------------------------------------
# fallback reasons
# ----------------------------------------------------------------------

# both operands of the add are forced residents: two at a point of k=1
OVERFULL = """
func f(v0, v1):
entry:
    add v2, v0, v1
    ret v2
"""


def _fail(c, **kwargs):
    return so.OptimizeResult(x=None, success=False, status=1,
                             message="Time limit reached. (HiGHS Status 13)")


def _no_scipy(monkeypatch):
    monkeypatch.setitem(sys.modules, "scipy.optimize", None)


def _failing_solver(monkeypatch):
    monkeypatch.setattr(so, "milp", _fail)


def test_fallback_no_scipy(monkeypatch, pressure_fn):
    _no_scipy(monkeypatch)
    plan = decide_residence(pressure_fn, 8)
    assert (plan.solver, plan.fallback, plan.route) == \
        ("greedy", "no_scipy", "")


def test_fallback_max_ilp_vars(pressure_fn):
    plan = decide_residence(pressure_fn, 8, max_ilp_vars=1)
    assert (plan.solver, plan.fallback) == ("greedy", "max_ilp_vars")


def test_fallback_overfull():
    plan = decide_residence(parse_function(OVERFULL), 1)
    assert (plan.solver, plan.fallback) == ("greedy", "overfull")


def test_fallback_solver(monkeypatch, pressure_fn):
    _failing_solver(monkeypatch)
    plan = decide_residence(pressure_fn, 8)
    assert (plan.solver, plan.fallback) == ("greedy", "solver")


def test_requested_greedy_is_no_fallback(pressure_fn):
    plan = decide_residence(pressure_fn, 8, use_ilp=False)
    assert (plan.solver, plan.fallback, plan.route) == ("greedy", "", "")


def _allocators(fn, k):
    yield optimal_spill_allocate(fn, k)
    yield differential_coalesce_allocate(fn, k, k)


@pytest.mark.parametrize("reason,patch", [("no_scipy", _no_scipy),
                                          ("solver", _failing_solver)])
def test_allocators_report_fallback(monkeypatch, pressure_fn, reason,
                                    patch):
    patch(monkeypatch)
    for result in _allocators(pressure_fn, 8):
        assert result.stats["ospill_solver"] == 0.0
        assert result.stats["ospill_lp"] == result.stats["ospill_branch"] \
            == 0.0
        for other in FALLBACK_REASONS:
            assert result.stats[f"ospill_fallback_{other}"] == \
                (1.0 if other == reason else 0.0)


def test_allocators_report_route(pressure_fn):
    for result in _allocators(pressure_fn, 8):
        assert result.stats["ospill_solver"] == 1.0
        assert result.stats["ospill_lp"] + result.stats["ospill_branch"] \
            == 1.0
        assert not any(result.stats[f"ospill_fallback_{r}"]
                       for r in FALLBACK_REASONS)
