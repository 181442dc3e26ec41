"""The FMM near field as a phase of the process executor's rounds.

Covers the sharded gravity path end to end:

* the cache-blocked near kernel and every owner cut of the near field are
  bit-identical to the unsharded, single-block solve;
* :func:`repro.analysis.planverify.verify_fmm_shards` passes on real
  shards and catches seeded overlaps, dropped edges and reordered
  segments; the executor refuses an unverified shard plan and the shm
  race detector catches the overlap at runtime;
* the process executor's gravity round is bit-identical to the serial
  solve across random refinement patterns, rank counts and a regrid
  between steps (in-place replan and arena-overflow re-fork);
* a process-backend driver holds one pool, and its gravity phase timers
  are critical-path totals that fit inside ``fmm.solve``.
"""

import multiprocessing

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.planverify import PlanVerificationError, verify_fmm_shards
from repro.analysis.shmrace import ShmRaceError
from repro.gravity.fmm import FarField, FmmSolver, evaluate_shard
from repro.gravity.plan import shard_plan
from repro.hydro.process_backend import ProcessHydroExecutor
from repro.profiling.apex import CounterRegistry
from tests.test_hydro_plan import make_state_mesh

pytestmark = pytest.mark.timeout(300)


def _near_mesh():
    """A refined level-1 mesh whose FMM has far and near pairs."""
    mesh, eos = make_state_mesh(levels=1, n=4, refine_keys=(0, 3, 5))
    return mesh, eos


def _far_field(solver, mesh):
    plan = solver.plan_for(mesh)
    n_leaves, n_part = len(plan.leaf_keys), int(plan.part_slots.size)
    far = FarField.on(np.empty(FarField.floats(n_leaves, n_part)), n_leaves, n_part)
    mass, _, _ = solver._tree_phases(plan, mesh, far, CounterRegistry())
    return plan, far, mass


def _owner(n_leaves, nprocs):
    return (np.arange(n_leaves) * nprocs // n_leaves).astype(np.intp)


def _assert_same_solution(ref, res):
    assert ref.accel.keys() == res.accel.keys()
    for key in ref.accel:
        assert np.array_equal(ref.accel[key], res.accel[key]), key
        assert np.array_equal(ref.phi[key], res.phi[key]), key


class TestShardedKernel:
    def test_blocked_near_kernel_matches_single_block(self):
        mesh, _ = _near_mesh()
        solver = FmmSolver(empty_mass_threshold=1e-12)
        plan, far, mass = _far_field(solver, mesh)
        assert plan.n_near_pairs > 0
        owner = np.zeros(len(plan.leaf_keys), dtype=np.intp)
        (single,) = shard_plan(plan, owner, 1, block_rows=10**9)
        (blocked,) = shard_plan(plan, owner, 1, block_rows=1)
        assert len(single.blocks) == 1
        assert len(blocked.blocks) == plan.near_tgt_slots.size
        p0, a0, _ = evaluate_shard(single, far, mass, 1.0, 3, 1e-12)
        p1, a1, _ = evaluate_shard(blocked, far, mass, 1.0, 3, 1e-12)
        assert np.array_equal(p0, p1)
        assert np.array_equal(a0, a1)

    @pytest.mark.parametrize("nprocs", [2, 3, 5])
    def test_owner_cut_matches_serial_shard(self, nprocs):
        mesh, _ = _near_mesh()
        solver = FmmSolver(empty_mass_threshold=1e-12)
        plan, far, mass = _far_field(solver, mesh)
        whole = plan.serial_shard()
        p0, a0, _ = evaluate_shard(whole, far, mass[whole.src_slots], 1.0, 3, 1e-12)
        owner = _owner(len(plan.leaf_keys), nprocs)
        shards = shard_plan(plan, owner, nprocs, block_rows=64)
        assert verify_fmm_shards(plan, shards, owner) == []
        for shard in shards:
            p, a, _ = evaluate_shard(
                shard, far, mass[shard.src_slots], 1.0, 3, 1e-12
            )
            assert np.array_equal(p, p0[shard.targets])
            assert np.array_equal(a, a0[shard.targets])


class TestShardVerifier:
    def _cut(self, nprocs=2):
        mesh, _ = _near_mesh()
        plan = FmmSolver().plan_for(mesh)
        owner = _owner(len(plan.leaf_keys), nprocs)
        return plan, shard_plan(plan, owner, nprocs), owner

    @pytest.mark.parametrize("nprocs", [1, 2, 3])
    def test_real_shards_verify(self, nprocs):
        plan, shards, owner = self._cut(nprocs)
        assert verify_fmm_shards(plan, shards, owner) == []

    def test_seeded_target_overlap_caught(self):
        plan, shards, owner = self._cut()
        foreign = shards[0].targets[:1]
        shards[1].targets = np.concatenate([shards[1].targets, foreign])
        checks = {v.check for v in verify_fmm_shards(plan, shards, owner)}
        assert {"fmm-shard-ownership", "fmm-shard-overlap"} <= checks

    def test_dropped_p2p_edge_caught(self):
        plan, shards, owner = self._cut()
        shards[0].p2p_edges[0] = shards[0].p2p_edges[0][1:]
        checks = {v.check for v in verify_fmm_shards(plan, shards, owner)}
        assert "fmm-shard-p2p-cover" in checks

    def test_reordered_near_rows_caught(self):
        plan, shards, owner = self._cut()
        shard = next(s for s in shards if s.near_rows.size > 1)
        shard.near_rows = shard.near_rows[::-1].copy()
        checks = {v.check for v in verify_fmm_shards(plan, shards, owner)}
        assert "fmm-shard-near" in checks


def _inject_overlap(shards):
    """Rank 1 also claims rank 0's first target leaf (its far L2P and
    accel/phi write — a second writer of that slot)."""
    a, b = shards
    b.targets = np.concatenate([b.targets, a.targets[:1]])
    b.tgt_pos = np.concatenate([b.tgt_pos, a.tgt_pos[:1]])


class TestExecutorGravity:
    @pytest.mark.parametrize("nprocs", [1, 2, 3])
    def test_sharded_solve_bit_identical(self, nprocs):
        mesh, eos = _near_mesh()
        ref = FmmSolver(empty_mass_threshold=1e-12).solve(mesh)
        solver = FmmSolver(empty_mass_threshold=1e-12)
        with ProcessHydroExecutor(mesh, eos=eos, nprocs=nprocs) as ex:
            ex._use_solver(solver)
            ex.ensure()
            res = solver.solve(mesh, pool=ex)
            _assert_same_solution(ref, res)

    def test_solver_after_fork_gets_shards_without_refork(self):
        """A pool forked before it saw the solver receives its shards in
        one round (``gplan``) and stays bit-identical."""
        mesh, eos = _near_mesh()
        ref = FmmSolver(empty_mass_threshold=1e-12).solve(mesh)
        solver = FmmSolver(empty_mass_threshold=1e-12)
        with ProcessHydroExecutor(mesh, eos=eos, nprocs=2, detect_races=True) as ex:
            ex.ensure()
            engine = ex.engine
            ex._use_solver(solver)
            res = solver.solve(mesh, pool=ex)
            assert ex.engine is engine
            _assert_same_solution(ref, res)
            assert ex.race_detector.findings == []

    def test_executor_refuses_unverified_shards(self):
        mesh, eos = _near_mesh()
        solver = FmmSolver(empty_mass_threshold=1e-12)
        with ProcessHydroExecutor(mesh, eos=eos, nprocs=2) as ex:
            ex.shard_hook = _inject_overlap
            with pytest.raises(PlanVerificationError, match="fmm-shard"):
                ex.step(1e-4, gravity=solver.as_gravity_callback())

    def test_race_detector_catches_seeded_overlap(self):
        mesh, eos = _near_mesh()
        solver = FmmSolver(empty_mass_threshold=1e-12)
        ex = ProcessHydroExecutor(
            mesh, eos=eos, nprocs=2, verify_plans=False, detect_races=True
        )
        ex.shard_hook = _inject_overlap
        try:
            with pytest.raises(ShmRaceError):
                ex.step(1e-4, gravity=solver.as_gravity_callback())
            kinds = {f.resource_a.subgrid.split("[")[0]
                     for f in ex.race_detector.findings}
            assert {"accel", "phi"} <= kinds
        finally:
            ex.close()

    def test_clean_gravity_round_has_no_race_findings(self):
        mesh, eos = _near_mesh()
        solver = FmmSolver(empty_mass_threshold=1e-12)
        with ProcessHydroExecutor(mesh, eos=eos, nprocs=2, detect_races=True) as ex:
            ex.step(1e-4, gravity=solver.as_gravity_callback())
            assert ex.race_detector.findings == []
            assert ex.race_detector.events_seen > 0

    def test_non_fmm_callback_keeps_parent_staging(self):
        from tests.test_hydro_plan import fake_gravity

        mesh, eos = _near_mesh()
        with ProcessHydroExecutor(mesh, eos=eos, nprocs=2) as ex:
            ex.step(1e-4, gravity=fake_gravity)
            assert ex.fmm is None and ex.fmm_shards is None

    @given(
        refine=st.lists(st.integers(0, 63), min_size=0, max_size=3),
        regrid=st.lists(st.integers(0, 63), min_size=1, max_size=8),
        nprocs=st.sampled_from([1, 2, 3]),
    )
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_random_meshes_and_regrid_bit_identical(self, refine, regrid, nprocs):
        """Random refinement, then one regrid between two solves: the pool's
        gravity stays bit-identical to the serial solve whether the regrid
        fits the arenas (in-place replan) or overflows them (re-fork)."""
        mesh, eos = make_state_mesh(levels=1, n=4, refine_keys=tuple(refine))
        serial = FmmSolver(empty_mass_threshold=1e-12)
        solver = FmmSolver(empty_mass_threshold=1e-12)
        with ProcessHydroExecutor(mesh, eos=eos, nprocs=nprocs) as ex:
            ex._use_solver(solver)
            ex.ensure()
            _assert_same_solution(serial.solve(mesh), solver.solve(mesh, pool=ex))
            capacity = ex.capacity_slots
            engine = ex.engine
            for pick in regrid:
                keys = sorted(k for k in mesh.leaf_keys() if k[0] < 3)
                mesh.refine(keys[pick % len(keys)])
            ex.ensure()
            replanned = len(mesh.leaf_keys()) <= capacity
            assert (ex.engine is engine) == replanned
            _assert_same_solution(serial.solve(mesh), solver.solve(mesh, pool=ex))


class TestOnePool:
    def _sim(self, **kw):
        from repro.core.driver import OctoTigerSim
        from repro.scenarios.dwd import dwd_scenario

        sc = dwd_scenario(level=2, scf_grid=24)
        return OctoTigerSim(
            sc.mesh, eos=sc.eos, omega=sc.omega, backend="process", **kw
        )

    def test_process_sim_with_gravity_holds_nprocs_workers(self):
        sim = self._sim(nprocs=2)
        try:
            sim.step()
            workers = [
                p for p in multiprocessing.active_children()
                if p.name.startswith("repro-locality-")
            ]
            assert len(workers) == 2
            assert sim.gravity_solver.last_stats.near_pairs > 0
        finally:
            sim.close()

    def test_phase_totals_fit_inside_solve(self):
        sim = self._sim(nprocs=2)
        try:
            sim.step()
            sim.counters.reset()
            sim.step()
            c = sim.counters
            phases = sum(
                c.total(name)
                for name in ("fmm.p2m_m2m", "fmm.m2l", "fmm.l2p", "fmm.p2p")
            )
            assert 0.0 < phases <= c.total("fmm.solve")
            assert c.total("fmm.m2l") == pytest.approx(
                c.total("fmm.m2l.far") + c.total("fmm.m2l.near")
            )
            assert c.total("fmm.m2l.near") > 0.0
        finally:
            sim.close()

