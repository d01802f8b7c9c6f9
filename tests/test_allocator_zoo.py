"""Allocator-zoo tests: registry API and differential equivalence.

The registry contract (register/lookup/capability metadata) plus the
subsystem's reason to exist: every registered backend, run through the
shared ``run_setup`` pipeline, must be observationally equivalent to
``baseline`` — on real kernels and on a seeded fuzz corpus, gated on
the symbolic checker, the interference lint and the binary round trip
(all of which :func:`repro.fuzz.run_case` applies per setup).
"""

import pytest

from repro.fuzz import run_case
from repro.fuzz.harness import case_seed, default_config
from repro.ir import Interpreter
from repro.regalloc import (PAPER_SETUPS, SETUPS, run_setup,
                            ssa_spill_allocate)
from repro.regalloc.base import check_allocation
from repro.regalloc.zoo import (AllocatorContext, AllocatorInfo,
                                allocator_names, get_allocator,
                                list_allocators, register_allocator,
                                unregister_allocator)
from repro.workloads import MIBENCH

from tests.conftest import make_pressure_fn

N_FUZZ_SEEDS = 100


class TestRegistry:
    def test_builtins_registered(self):
        assert allocator_names() == (
            "baseline", "remapping", "select", "ospill", "coalesce",
            "ssa_spill")
        assert SETUPS == allocator_names()

    def test_paper_setups_are_a_prefix(self):
        assert PAPER_SETUPS == SETUPS[:len(PAPER_SETUPS)]
        assert "ssa_spill" not in PAPER_SETUPS

    def test_capability_metadata(self):
        by_name = {info.name: info for info in list_allocators()}
        assert not by_name["baseline"].differential
        assert by_name["remapping"].differential
        assert by_name["ssa_spill"].needs_ssa
        assert by_name["ssa_spill"].spill_style == "everywhere"
        for info in by_name.values():
            assert info.to_dict()["name"] == info.name

    def test_get_unknown_names_the_known(self):
        with pytest.raises(KeyError, match="baseline"):
            get_allocator("nope")

    def test_register_and_unregister(self):
        info = AllocatorInfo(name="zoo_test_dummy", description="d",
                             spill_style="none", differential=False)
        register_allocator(info, lambda fn, ctx: None)
        try:
            assert "zoo_test_dummy" in allocator_names()
            assert get_allocator("zoo_test_dummy").info is info
        finally:
            unregister_allocator("zoo_test_dummy")
        assert "zoo_test_dummy" not in allocator_names()

    def test_duplicate_rejected(self):
        info = AllocatorInfo(name="zoo_test_dup", description="d",
                             spill_style="none", differential=False)
        register_allocator(info, lambda fn, ctx: None)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_allocator(info, lambda fn, ctx: None)
        finally:
            unregister_allocator("zoo_test_dup")

    def test_bad_names_rejected(self):
        for bad in ("", "has space", "has-dash", "ha/sh"):
            with pytest.raises(ValueError):
                register_allocator(
                    AllocatorInfo(name=bad, description="d",
                                  spill_style="none", differential=False),
                    lambda fn, ctx: None)

    def test_runner_must_be_callable(self):
        with pytest.raises(TypeError):
            register_allocator(
                AllocatorInfo(name="zoo_test_nc", description="d",
                              spill_style="none", differential=False),
                None)

    def test_custom_backend_served_by_run_setup(self, sum_fn):
        from repro.regalloc.iterated import iterated_allocate

        info = AllocatorInfo(name="zoo_test_live", description="d",
                             spill_style="iterated", differential=False)
        register_allocator(
            info, lambda fn, ctx: iterated_allocate(fn, ctx.reg_n))
        try:
            prog = run_setup(sum_fn, "zoo_test_live")
            ref = Interpreter().run(sum_fn, (5,)).return_value
            assert Interpreter().run(
                prog.final_fn, (5,)).return_value == ref
        finally:
            unregister_allocator("zoo_test_live")

    def test_context_carries_pipeline_knobs(self):
        seen = {}

        def runner(fn, ctx):
            seen["ctx"] = ctx
            from repro.regalloc.iterated import iterated_allocate
            return iterated_allocate(fn, ctx.base_k)

        info = AllocatorInfo(name="zoo_test_ctx", description="d",
                             spill_style="iterated", differential=False)
        register_allocator(info, runner)
        try:
            run_setup(make_pressure_fn(seed=4), "zoo_test_ctx",
                      base_k=7, reg_n=11, diff_n=6)
        finally:
            unregister_allocator("zoo_test_ctx")
        ctx = seen["ctx"]
        assert isinstance(ctx, AllocatorContext)
        assert (ctx.base_k, ctx.reg_n, ctx.diff_n) == (7, 11, 6)


class TestSSABackendDirect:
    def test_budget_and_validity(self):
        fn = make_pressure_fn(seed=2)
        result = ssa_spill_allocate(fn, 12)
        check_allocation(result, 12)
        used = {r.id for r in result.fn.registers() if not r.virtual}
        assert used and max(used) < 12

    def test_semantics_at_tight_budget(self):
        fn = make_pressure_fn(seed=5)
        ref = Interpreter().run(fn, (4,)).return_value
        for k in (12, 8, 6):
            result = ssa_spill_allocate(fn, k)
            got = Interpreter().run(result.fn, (4,)).return_value
            assert got == ref, f"k={k}"

    @pytest.mark.parametrize("k", [0, -1])
    def test_invalid_k_rejected_up_front(self, sum_fn, k):
        # same contract as iterated_allocate: no spill rounds are run
        with pytest.raises(ValueError, match="k must be positive"):
            ssa_spill_allocate(sum_fn, k)

    def test_stats_exported(self):
        result = ssa_spill_allocate(make_pressure_fn(seed=6), 8)
        for key in ("ssa_phis", "ssa_versions", "spilled_everywhere",
                    "spill_slots"):
            assert key in result.stats


class TestDifferentialEquivalence:
    """Every backend vs baseline, with the full oracle battery."""

    @pytest.mark.parametrize("workload", [w.name for w in MIBENCH[:6]])
    def test_mibench_equivalence(self, workload):
        w = next(x for x in MIBENCH if x.name == workload)
        fn = w.function()
        base = run_setup(fn, "baseline", remap_restarts=2)
        ref = Interpreter().run(
            base.final_fn, w.default_args).return_value
        for setup in SETUPS[1:]:
            prog = run_setup(fn, setup, remap_restarts=2)
            got = Interpreter().run(
                prog.final_fn, w.default_args).return_value
            assert got == ref, f"{setup} diverges from baseline on {workload}"

    @pytest.mark.parametrize("chunk", range(4))
    def test_fuzz_corpus_all_backends(self, chunk):
        """100 seeded cases through run_case's oracle battery (symbolic
        checker, L010, static verifier, binary round trip) across every
        registered setup, split into chunks to keep -x granular."""
        per = N_FUZZ_SEEDS // 4
        failures = []
        for i in range(chunk * per, (chunk + 1) * per):
            seed = case_seed(515, i)
            outcome = run_case(seed, default_config(515, i), restarts=1)
            failures.extend(
                dict(f, seed=seed) for f in outcome["failures"])
        assert not failures, failures[:3]


def test_bench_allocators_records_compile_seconds():
    from repro.benchtrack import bench_allocators

    doc = bench_allocators(n_workloads=1, remap_restarts=1)
    for setup in SETUPS:
        totals = doc["totals"][setup]
        assert sorted(totals) == ["compile_s", "cycles", "instructions",
                                  "setlr", "spills"]
        assert totals["compile_s"] > 0.0
    assert all("compile_s" not in row for row in doc["results"])
