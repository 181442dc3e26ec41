"""Process-parallel hydro execution: the RK3 step on real OS cores.

:class:`ProcessHydroExecutor` runs the same batched SSP-RK3 step as
:meth:`repro.hydro.integrator.HydroIntegrator._step_batched`, but with the
leaves partitioned over the worker processes of a
:class:`repro.amt.parallel.ParallelEngine`:

* the plan adopts every leaf sub-grid into a **shared-memory arena**
  (:func:`repro.comms.bundle.adopt_arena` with a
  :class:`repro.amt.shm.ShmArena` view) *before* forking, so each worker's
  inherited numpy views alias the same pages — writes to owned interiors
  and ghost bands are visible everywhere without copies;
* leaves are partitioned along the space-filling curve
  (:func:`repro.octree.partition.sfc_partition`) and each worker runs the
  stacked kernels over maximal contiguous same-level slot runs of its
  leaves — the per-worker step is the batched step on a sub-arena;
* ghost exchange reuses the traced :class:`~repro.comms.bundle.PairBundle`
  plan.  In the default ``wire="shm"`` mode the *destination* worker
  applies each of its bundles directly (pack reads donor interiors from
  shm, unpack writes its own ghost bands — a shm write plus the round's
  control message).  ``wire="pipe"`` serializes each remote bundle's flat
  payload buffer as-is through the parent (source packs, parent relays,
  destination unpacks) — the explicit wire format, kept for the
  message-counting experiments;
* each RK stage is two bulk-synchronous rounds (ghost+rhs, then update) —
  three when flux corrections are active — so the schedule satisfies the
  same dependence structure the DES driver wires through futures: fills
  read only stage-``k-1`` interiors (every traced fill reads interiors
  only), kernels read own interiors + ghosts, updates write own interiors;
* FMM gravity is one more round: the parent writes the far field into a
  small shm arena, and each worker evaluates the near field of the leaves
  it owns (:func:`repro.gravity.fmm.evaluate_shard`), writing their accel
  and phi into shm (see :meth:`ProcessHydroExecutor.near_field`).

Every kernel is the bit-identical stacked implementation the batched
integrator uses, partitioned over disjoint leaf sets, so the result is
``np.array_equal`` with both the batched single-process step and the DES
driver — the cross-check contract of ``repro.core.crosscheck``.

Worker crashes (the ``FaultSpec`` crash fate, or a real SIGKILL) surface
as :class:`~repro.amt.parallel.WorkerCrashError`; the shm segments are
owned by the parent's lifecycle guard, so a crashed step never leaks
``/dev/shm`` entries.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.amt.parallel import ParallelEngine, WorkerLink
from repro.amt.shm import ShmArena
from repro.analysis.effects import ANY, declare_effects
from repro.analysis.planverify import (
    require_verified,
    verify_fmm_shards,
    verify_process_plan,
    verify_region_split,
)
from repro.analysis.shmrace import (
    MODE_READ,
    MODE_WRITE,
    PHASE_EXCHANGE,
    PHASE_COMPUTE,
    PHASE_UPDATE,
    REGION_ALL,
    REGION_INTERIOR,
    SEG_ACCEL,
    SEG_FIELDS,
    SEG_FLUX,
    SEG_PHI,
    ShmEventLog,
    ShmRaceDetector,
    field_access_rows,
)
from repro.comms.bundle import GhostBundlePlan, adopt_arena, build_bundle_plan
from repro.gravity.fmm import FAR_FLOATS_PER_LEAF, FarField, evaluate_shard
from repro.gravity.plan import FmmShard, shard_plan
from repro.hydro.eos import IdealGasEOS
from repro.hydro.plan import (
    ScratchArena,
    compute_region_split,
    region_views,
    stacked_resync_tau_kernel,
    stacked_rhs_kernel,
    stacked_signal_kernel,
    stacked_source_kernel,
    stacked_update_kernel,
)
from repro.hydro.reflux import apply_flux_table, build_reflux_table
from repro.octree.fields import NFIELDS, Field
from repro.octree.ghost import FaceTraceCache
from repro.octree.mesh import AmrMesh
from repro.octree.node import NodeKey
from repro.octree.partition import sfc_partition
from repro.profiling.apex import CounterRegistry

#: Convex-combination coefficients, shared with the serial integrator.
from repro.hydro.integrator import _RK3_STAGES  # noqa: E402  (cycle-free)

#: Shm arenas are allocated for this many times the current leaf count, so
#: a growing regrid usually fits the existing segments and can be patched
#: in place (:meth:`ProcessHydroExecutor._replan_in_place`) instead of
#: re-forking the pool.
ARENA_HEADROOM = 1.5

#: Sentinel: a regrid was announced via ``notify_regrid`` and the surviving
#: ghost face traces are valid for the (not yet fingerprinted) new topology.
_TRACES_PENDING = object()


class _WorkerState:
    """Everything one worker precomputes after fork (child-side only)."""

    def __init__(
        self,
        rank: int,
        registry: CounterRegistry,
        executor: "ProcessHydroExecutor",
        link: Optional[WorkerLink] = None,
    ) -> None:
        self.rank = rank
        self.registry = registry
        self.ex = executor
        #: Futurization primitive for the overlap schedule (mid-round
        #: notes/waits); ``None`` only in direct unit-test construction.
        self.link = link
        self.interior = slice(executor.ghost, executor.ghost + executor.n)
        #: BSP epoch: one per dispatched command, advanced identically on
        #: every rank (rounds broadcast the same command sequence).
        self.epoch = 0
        self.events = None
        #: P2P templates of the bound gravity shard, by class key — kept
        #: across replans so a revisited class is not rebuilt.
        self.templates: Dict[Any, Tuple[np.ndarray, np.ndarray]] = {}
        self.shard: Optional[FmmShard] = None
        self._bind()
        if executor.fmm_shards:
            self._adopt_shard(executor.fmm_shards[rank])
        if executor.event_log is not None:
            self.events = executor.event_log.writer(rank)
            self._build_event_rows(len(executor.leaf_keys))

    def _bind(self) -> None:
        """(Re)derive every topology-dependent view from the executor's
        current plan state — at fork time from the inherited state, and
        again after each :meth:`replan` patches that state in place."""
        ex = self.ex
        m = ex.m
        rank = self.rank
        stacked = ex.arena_view.reshape(-1, NFIELDS, m, m, m)
        #: Maximal contiguous same-level slot runs owned by this rank.
        self.runs: List[Tuple[int, int, float]] = ex.runs[rank]
        self.u = [stacked[lo:hi] for lo, hi, _ in self.runs]
        self.u_int = [u[:, :, self.interior, self.interior, self.interior]
                      for u in self.u]
        self.u0 = [np.empty_like(ui) for ui in self.u_int]
        self.dudt = [np.empty_like(ui) for ui in self.u_int]
        self.scratch = ScratchArena()
        #: Per-run interior cell-centre coordinates (rotating frame),
        #: precomputed by the parent (pure functions of the leaf keys).
        self.x = [bx for bx, _ in ex.run_xy[rank]]
        self.y = [by for _, by in ex.run_xy[rank]]
        #: Bundles this rank applies (wire=shm: all with dst == rank;
        #: wire=pipe: the local ones — remote payloads arrive by pipe).
        plan = ex.bundle_plan
        self.dst_pairs = sorted(
            pair for pair in plan.bundles if pair[1] == rank
        )
        self.src_remote = sorted(
            pair for pair in plan.bundles
            if pair[0] == rank and pair[0] != pair[1]
        )
        self.dst_local = [p for p in self.dst_pairs if p[0] == p[1]]
        self.dst_remote = [p for p in self.dst_pairs if p[0] != p[1]]
        self.accel_view = ex.accel_view
        self.flux_view = ex.flux_view
        #: Owned leaves for the reflux pass: key -> dudt interior view.
        keys = ex.leaf_keys
        self.owned_rhs: Dict[NodeKey, np.ndarray] = {}
        for run_index, (lo, hi, _) in enumerate(self.runs):
            for j, key in enumerate(keys[lo:hi]):
                self.owned_rhs[key] = self.dudt[run_index][j]
        # Interior/halo sub-views for the futurized schedule: per run, the
        # (u, dudt) region views of every split box plus the boundary-face
        # patches the box owns (only boxes touching a block face collect
        # flux there — together the patches tile each face exactly).
        split = ex.split
        self.region_interior: List[list] = []
        self.region_halo: List[list] = []
        for run_index, (lo, hi, _dx) in enumerate(self.runs):
            u = self.u[run_index]
            dudt = self.dudt[run_index]
            boxes = []
            if split.has_interior:
                boxes.append(("i", split.interior_box))
            boxes.extend(("h", box) for box in split.halo_boxes)
            interior_list: list = []
            halo_list: list = []
            for bi, (kind, box) in enumerate(boxes):
                u_sub, d_sub = region_views(u, dudt, box, ex.ghost)
                faces_sub = self._region_faces(lo, hi, box)
                entry = (u_sub, d_sub, faces_sub, (run_index, bi))
                (interior_list if kind == "i" else halo_list).append(entry)
            self.region_interior.append(interior_list)
            self.region_halo.append(halo_list)

    def _adopt_shard(self, shard: Optional[FmmShard]) -> None:
        """Take this rank's near-field shard, with its P2P templates."""
        self.shard = shard
        if shard is not None:
            shard.bind_templates(self.templates)
            self.templates = {c.key: (c.t1, c.t3) for c in shard.p2p}

    def _region_faces(
        self, lo: int, hi: int, box: Tuple[int, ...]
    ) -> Dict[Tuple[int, int], np.ndarray]:
        """Boundary-flux patches a split box owns: for each block face the
        box touches, the sub-view of the face buffer covering the box's
        transverse extent."""
        n = self.ex.n
        bounds = ((box[0], box[1]), (box[2], box[3]), (box[4], box[5]))
        faces: Dict[Tuple[int, int], np.ndarray] = {}
        for axis in range(3):
            t1, t2 = [bounds[i] for i in range(3) if i != axis]
            for side in (0, 1):
                touches = (
                    bounds[axis][0] == 0 if side == 0
                    else bounds[axis][1] == n
                )
                if touches:
                    faces[(axis, side)] = self.flux_view[
                        lo:hi, axis, side
                    ][:, :, t1[0]:t1[1], t2[0]:t2[1]]
        return faces

    def replan(self, payload: Dict[str, Any]) -> None:
        """Patch this worker's executor state for a regridded topology.

        The parent's replan broadcast carries everything the child cannot
        derive itself (its forked mesh copy is stale the moment the parent
        regrids): the new arena layout, partitions, ghost bundles, cell
        centres and the mesh-free reflux table.  Rebinding happens inside
        the barrier, so no stale index array survives into the next round
        — the same guarantee a re-fork gave, without the fork.
        """
        ex = self.ex
        n, m = ex.n, ex.m
        chunk = NFIELDS * m**3
        ex.leaf_keys = payload["leaf_keys"]
        ex.slot = {k: i for i, k in enumerate(ex.leaf_keys)}
        n_slots = len(ex.leaf_keys)
        ex.arena_view = ex.arena.ndarray((n_slots * chunk,))
        ex.accel_view = ex.accel_arena.ndarray((n_slots, 3, n, n, n))
        ex.phi_view = ex.phi_arena.ndarray((n_slots, n, n, n))
        ex.flux_view = ex.flux_arena.ndarray(
            (n_slots, 3, 2, NFIELDS, n, n)
        )
        ex.runs = payload["runs"]
        ex.run_xy = [[] for _ in range(ex.nprocs)]
        ex.run_xy[self.rank] = payload["run_xy"]
        ex.reflux_table = payload["reflux_table"]
        plan = ex.bundle_plan
        plan.bundles = payload["bundles"]
        plan.fingerprint = payload["fingerprint"]
        # Membership maps are parent-side concerns; drop the stale copies
        # so nothing can read them by accident.
        plan.cover = {}
        plan.donor_of = {}
        self._bind()
        self._adopt_shard(payload["fmm_shard"])
        if self.events is not None:
            self._build_event_rows(n_slots)

    def gplan(self, shard: FmmShard) -> None:
        """Adopt a new near-field shard (the gravity plan moved without a
        topology change, e.g. a new solver or opening angle)."""
        self._adopt_shard(shard)
        if self.events is not None:
            self._build_event_rows(len(self.ex.leaf_keys))

    def _build_event_rows(self, n_slots: int) -> None:
        """Precompute per-phase shm access descriptors from the *live*
        plan arrays — whatever indices the phases will actually use
        (including anything injected into the bundle plan) is what gets
        logged, so the dynamic detector needs no trust in the planner."""
        ex = self.ex
        n, g, nfields = ex.n, ex.ghost, NFIELDS
        plan = ex.bundle_plan

        def runs_rows(mode: int, seg: int, region: int) -> np.ndarray:
            return np.array(
                [[mode, seg, lo, hi, region] for lo, hi, _ in self.runs],
                dtype=np.int64,
            ).reshape(-1, 5)

        def bundle_rows(pairs, srcs: bool, dsts: bool) -> List[np.ndarray]:
            rows = []
            for pair in pairs:
                b = plan.bundles[pair]
                if srcs:
                    rows.append(field_access_rows(
                        [b.copy_src, b.fine_src], MODE_READ, n, g, nfields))
                if dsts:
                    rows.append(field_access_rows(
                        [b.copy_dst, b.fine_dst], MODE_WRITE, n, g, nfields))
            return rows

        own_int_read = runs_rows(MODE_READ, SEG_FIELDS, REGION_INTERIOR)
        own_int_write = runs_rows(MODE_WRITE, SEG_FIELDS, REGION_INTERIOR)
        local_pairs = [p for p in self.dst_pairs if p[0] == p[1]]
        ev: Dict[Any, np.ndarray] = {
            "begin": own_int_read,
            "ghost": np.vstack(
                bundle_rows(self.dst_pairs, srcs=True, dsts=True)
                or [np.empty((0, 5), dtype=np.int64)]
            ),
            "ghost_pack": np.vstack(
                bundle_rows(self.src_remote, srcs=True, dsts=False)
                or [np.empty((0, 5), dtype=np.int64)]
            ),
            "ghost_unpack": np.vstack(
                bundle_rows(local_pairs, srcs=True, dsts=False)
                + bundle_rows(self.dst_pairs, srcs=False, dsts=True)
                or [np.empty((0, 5), dtype=np.int64)]
            ),
            "reflux": np.array(
                [[MODE_READ, SEG_FLUX, 0, n_slots, REGION_ALL]],
                dtype=np.int64,
            ),
            "update": own_int_write,
            "finish": own_int_write,
            "gravity": self._gravity_rows(),
        }
        rhs_base = runs_rows(MODE_READ, SEG_FIELDS, REGION_ALL)
        rhs_flux = runs_rows(MODE_WRITE, SEG_FLUX, REGION_ALL)
        rhs_accel = runs_rows(MODE_READ, SEG_ACCEL, REGION_ALL)
        for fluxes in (False, True):
            for accel in (False, True):
                parts = [rhs_base]
                if fluxes:
                    parts.append(rhs_flux)
                if accel:
                    parts.append(rhs_accel)
                ev[("rhs", fluxes, accel)] = np.vstack(parts)
        self._event_rows = ev

    def _gravity_rows(self) -> np.ndarray:
        """The near-field phase's footprint, from the live shard arrays:
        read density of every P2P source leaf, write accel and phi of the
        target leaves."""
        shard = self.shard
        if shard is None:
            return np.empty((0, 5), dtype=np.int64)
        rows = [
            [mode, seg, lo, hi, region]
            for slots, mode, segs, region in (
                (shard.src_slots, MODE_READ, (SEG_FIELDS,), REGION_INTERIOR),
                (shard.targets, MODE_WRITE, (SEG_ACCEL, SEG_PHI), REGION_ALL),
            )
            for lo, hi in _slot_ranges(slots)
            for seg in segs
        ]
        return np.array(rows, dtype=np.int64).reshape(-1, 5)

    def _log_phase(self, command: Any) -> None:
        op = command[0]
        if op == "xstage":
            # Fused overlap epoch: stamp each access group with its
            # protocol phase so the detector can apply the sanctioned
            # message-grained happens-before edges (exchange -> update).
            if self.ex.wire == "shm":
                self.events.log(
                    self.epoch, self._event_rows["ghost"],
                    phase=PHASE_EXCHANGE,
                )
            else:
                self.events.log(
                    self.epoch, self._event_rows["ghost_pack"],
                    phase=PHASE_EXCHANGE,
                )
                self.events.log(
                    self.epoch, self._event_rows["ghost_unpack"],
                    phase=PHASE_EXCHANGE,
                )
            self.events.log(
                self.epoch,
                self._event_rows[("rhs", bool(command[1]), bool(command[2]))],
                phase=PHASE_COMPUTE,
            )
            if command[4]:  # fused update rides in the same epoch
                self.events.log(
                    self.epoch, self._event_rows["update"],
                    phase=PHASE_UPDATE,
                )
            return
        if op == "rhs":
            rows = self._event_rows[("rhs", bool(command[1]), bool(command[2]))]
        else:
            rows = self._event_rows.get(op)
        if rows is not None:
            self.events.log(self.epoch, rows)

    # -- phases (one method per command) --------------------------------------
    def begin(self) -> None:
        for u_int, u0 in zip(self.u_int, self.u0):
            np.copyto(u0, u_int)

    def ghost_shm(self) -> None:
        arena = self.ex.arena_view
        plan = self.ex.bundle_plan
        with self.registry.timer("hydro.ghost"):
            for pair in self.dst_pairs:
                plan.bundles[pair].apply(arena)

    def ghost_pack(self) -> Dict[Tuple[int, int], np.ndarray]:
        """wire=pipe, phase 1: pack remote payloads for the parent relay."""
        arena = self.ex.arena_view
        plan = self.ex.bundle_plan
        out = {}
        with self.registry.timer("hydro.ghost"):
            for pair in self.src_remote:
                out[pair] = plan.bundles[pair].pack(arena).copy()
        return out

    def ghost_unpack(self, payloads: Dict[Tuple[int, int], np.ndarray]) -> None:
        """wire=pipe, phase 2: local applies + scatter relayed payloads."""
        arena = self.ex.arena_view
        plan = self.ex.bundle_plan
        with self.registry.timer("hydro.ghost"):
            for pair in self.dst_pairs:
                bundle = plan.bundles[pair]
                if pair[0] == pair[1]:
                    bundle.apply(arena)
                else:
                    np.copyto(bundle.payload, payloads[pair])
                    bundle.unpack(arena)

    def rhs(self, collect_fluxes: bool, use_accel: bool, omega: float) -> None:
        ex = self.ex
        for run_index, (lo, hi, dx) in enumerate(self.runs):
            faces = None
            if collect_fluxes:
                faces = {
                    (axis, side): self.flux_view[lo:hi, axis, side]
                    for axis in range(3)
                    for side in (0, 1)
                }
            stacked_rhs_kernel(
                self.u[run_index], dx, ex.eos, self.dudt[run_index],
                reconstruction=ex.reconstruction,
                faces=faces,
                registry=self.registry,
                scratch=self.scratch,
                tag=run_index,
            )
            if use_accel or omega != 0.0:
                accel = self.accel_view[lo:hi] if use_accel else None
                stacked_source_kernel(
                    self.u_int[run_index], self.dudt[run_index],
                    accel=accel, omega=omega,
                    x=self.x[run_index], y=self.y[run_index],
                )

    def _rhs_regions(self, passes: list, collect_fluxes: bool, dx: float) -> None:
        for u_sub, d_sub, faces_sub, tag in passes:
            stacked_rhs_kernel(
                u_sub, dx, self.ex.eos, d_sub,
                reconstruction=self.ex.reconstruction,
                faces=(faces_sub or None) if collect_fluxes else None,
                registry=self.registry,
                scratch=self.scratch,
                tag=("region",) + tag,
            )

    def xstage(
        self,
        collect_fluxes: bool,
        use_accel: bool,
        omega: float,
        fuse_update: bool,
        a0: float,
        a1: float,
        dt: float,
    ) -> Dict[str, float]:
        """One futurized RK stage: post the exchange, compute the interior
        while it is in flight, drain arrivals, then compute the halo.

        wire=shm — the apply *is* the receive (donor interiors were
        sealed by the previous barrier), so the latency hidden here is
        the cross-rank wait for the fused update's go-ahead: every rank
        notes ``ghosts`` once its applies are done (it has finished
        reading donor interiors) and the parent routes ``go`` when all
        have — a message-grained happens-before edge that replaces the
        rhs/update barrier and is hidden behind interior+halo compute.

        wire=pipe — remote payloads are posted to the parent relay
        first, interior compute runs while they propagate, then the
        drain/unpack feeds the halo passes.

        Returns per-phase wall-time attribution for the bench harness.
        """
        ex = self.ex
        arena = ex.arena_view
        plan = ex.bundle_plan
        link = self.link
        seg = {"ghost_s": 0.0, "wait_s": 0.0, "rhs_s": 0.0}

        t0 = time.perf_counter()
        with self.registry.timer("hydro.ghost"):
            if ex.wire == "pipe":
                # Post every remote payload before touching compute; the
                # parent relays each to its destination as it arrives.
                for pair in self.src_remote:
                    bundle = plan.bundles[pair]
                    bundle.flip()
                    link.note(("payload", pair), bundle.pack(arena))
                for pair in self.dst_local:
                    plan.bundles[pair].apply(arena)
            else:
                for pair in self.dst_pairs:
                    plan.bundles[pair].apply(arena)
        if ex.wire == "shm" and fuse_update:
            link.note("ghosts")
        seg["ghost_s"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        for run_index, (_lo, _hi, dx) in enumerate(self.runs):
            self._rhs_regions(
                self.region_interior[run_index], collect_fluxes, dx
            )
        seg["rhs_s"] += time.perf_counter() - t0

        if ex.wire == "pipe":
            t0 = time.perf_counter()
            with self.registry.timer("hydro.ghost"):
                for pair in self.dst_remote:
                    bundle = plan.bundles[pair]
                    np.copyto(bundle.payload, link.wait(("payload", pair)))
                    bundle.unpack(arena)
            seg["wait_s"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        for run_index, (lo, hi, dx) in enumerate(self.runs):
            self._rhs_regions(self.region_halo[run_index], collect_fluxes, dx)
            if use_accel or omega != 0.0:
                accel = self.accel_view[lo:hi] if use_accel else None
                stacked_source_kernel(
                    self.u_int[run_index], self.dudt[run_index],
                    accel=accel, omega=omega,
                    x=self.x[run_index], y=self.y[run_index],
                )
        seg["rhs_s"] += time.perf_counter() - t0

        if fuse_update:
            if ex.wire == "shm":
                # The go-ahead orders every rank's donor-interior reads
                # before any rank's interior writes; by now the compute
                # above has usually already absorbed the wait.
                t0 = time.perf_counter()
                link.wait("go")
                seg["wait_s"] += time.perf_counter() - t0
            t0 = time.perf_counter()
            self.update(a0, a1, dt)
            seg["rhs_s"] += time.perf_counter() - t0
        return seg

    def gravity(
        self, order: int, g_newton: float, threshold: float
    ) -> Dict[str, float]:
        """The FMM near field for this rank's target leaves.

        Reads the parent's far field from its shm arena and the source
        leaves' density from the field arena, evaluates the shard
        (:func:`repro.gravity.fmm.evaluate_shard`) and writes the owned
        leaves' accel and phi into shm.  Returns the phase wall times.
        """
        ex = self.ex
        shard = self.shard
        n, m = ex.n, ex.m
        far = FarField.on(ex.far_view, shard.n_leaves, shard.n_part)
        rho = ex.arena_view.reshape(-1, NFIELDS, m, m, m)[
            shard.src_slots, Field.RHO
        ][:, self.interior, self.interior, self.interior]
        mass = rho.reshape(shard.src_slots.size, -1) * shard.src_vol[:, None]
        phi, acc, seg = evaluate_shard(
            shard, far, mass, g_newton, order, threshold
        )
        t0 = time.perf_counter()
        count = shard.targets.size
        ex.accel_view[shard.targets] = acc.transpose(0, 2, 1).reshape(
            count, 3, n, n, n
        )
        ex.phi_view[shard.targets] = phi.reshape(count, n, n, n)
        seg["l2p_s"] += time.perf_counter() - t0
        return seg

    def reflux(self) -> int:
        """Flux corrections for owned leaves, reading all leaves' faces.

        Replays the parent-built mesh-free reflux table
        (:func:`repro.hydro.reflux.build_reflux_table`): rows for unowned
        leaves are skipped, so each coarse face is corrected exactly once
        — by its owner — while the full shm flux arena supplies every
        child face.  The table, not the forked mesh copy, is the source
        of truth: it stays correct across in-place replans where the
        child mesh goes stale.
        """
        with self.registry.timer("hydro.update"):
            return apply_flux_table(
                self.ex.reflux_table, self.owned_rhs, self.flux_view,
                self.ex.n,
            )

    def update(self, a0: float, a1: float, dt: float) -> None:
        with self.registry.timer("hydro.update"):
            for run_index in range(len(self.runs)):
                stacked_update_kernel(
                    self.u_int[run_index], self.u0[run_index],
                    self.dudt[run_index], a0, a1, dt, self.ex.eos,
                    scratch=self.scratch, tag=run_index,
                )

    def finish(self) -> Dict[NodeKey, float]:
        """Tau resync + per-leaf CFL signals of the owned leaves."""
        keys = self.ex.leaf_keys
        signals: Dict[NodeKey, float] = {}
        with self.registry.timer("hydro.update"):
            for run_index, (lo, hi, _) in enumerate(self.runs):
                u_int = self.u_int[run_index]
                stacked_resync_tau_kernel(u_int, self.ex.eos)
                out = self.scratch.get(("signal", run_index), (hi - lo,))
                stacked_signal_kernel(u_int, self.ex.eos, out)
                for j, key in enumerate(keys[lo:hi]):
                    signals[key] = float(out[j])
        return signals

    def dispatch(self, command: Any) -> Any:
        op = command[0]
        self.epoch += 1
        if self.events is not None:
            self._log_phase(command)
        if op == "begin":
            return self.begin()
        if op == "ghost":
            return self.ghost_shm()
        if op == "ghost_pack":
            return self.ghost_pack()
        if op == "ghost_unpack":
            return self.ghost_unpack(command[1])
        if op == "rhs":
            return self.rhs(command[1], command[2], command[3])
        if op == "xstage":
            return self.xstage(*command[1:])
        if op == "reflux":
            return self.reflux()
        if op == "update":
            return self.update(command[1], command[2], command[3])
        if op == "finish":
            return self.finish()
        if op == "gravity":
            return self.gravity(command[1], command[2], command[3])
        if op == "gplan":
            return self.gplan(command[1])
        if op == "replan":
            return self.replan(command[1])
        raise ValueError(f"unknown command {op!r}")


def _slot_ranges(slots: np.ndarray) -> List[Tuple[int, int]]:
    """Maximal ``[lo, hi)`` runs of a set of leaf slots."""
    slots = np.unique(slots)
    if not slots.size:
        return []
    breaks = np.flatnonzero(np.diff(slots) != 1) + 1
    starts = np.concatenate([[0], breaks])
    stops = np.concatenate([breaks, [slots.size]])
    return [(int(slots[a]), int(slots[b - 1]) + 1) for a, b in zip(starts, stops)]


def _make_handler(executor: "ProcessHydroExecutor"):
    """The child-side handler factory (runs after fork; sees the parent's
    mesh, plans and shm views by inheritance)."""

    def factory(rank: int, registry: CounterRegistry, link: WorkerLink):
        state = _WorkerState(rank, registry, executor, link)
        return state.dispatch

    return factory


class ProcessHydroExecutor:
    """Owns the shm arenas and the worker pool for process-parallel steps.

    Build once and call :meth:`step` repeatedly; :meth:`ensure` revalidates
    arenas, plans and workers whenever the mesh topology moved or leaf
    storage was rebound.  A regrid that fits the allocated arena headroom
    is patched **in place** and broadcast to the live workers — no
    re-fork; an overflow (or first build) takes the cold path, where
    re-forking is the plan invalidation broadcast of last resort: new
    children inherit the new plan, so no stale index array can survive.
    """

    def __init__(
        self,
        mesh: AmrMesh,
        eos: Optional[IdealGasEOS] = None,
        nprocs: int = 2,
        omega: float = 0.0,
        reflux: bool = True,
        reconstruction: str = "muscl",
        wire: str = "shm",
        timeout: float = 120.0,
        verify_plans: bool = True,
        detect_races: bool = False,
        overlap: bool = False,
    ) -> None:
        if wire not in ("shm", "pipe"):
            raise ValueError(f"wire must be 'shm' or 'pipe', got {wire!r}")
        self.mesh = mesh
        self.eos = eos or IdealGasEOS()
        self.omega = omega
        self.reflux = reflux
        self.reconstruction = reconstruction
        self.wire = wire
        #: Futurized schedule: fuse ghost exchange + rhs (+ update when no
        #: reflux round is needed) into one dependency-grained round per RK
        #: stage, hiding exchange latency behind interior compute.  Off by
        #: default — the BSP schedule is the ablation baseline.
        self.overlap = bool(overlap)
        self.engine = ParallelEngine(nprocs, timeout=timeout)
        self.nprocs = self.engine.nprocs
        self.registry: Optional[CounterRegistry] = None
        #: Static verification (:func:`verify_process_plan`) of every
        #: (re)built plan; a violated invariant raises before forking.
        self.verify_plans = verify_plans
        #: Dynamic shm race detection: workers log access events, the
        #: parent scans at every barrier (``engine.round_observer``).
        self.detect_races = detect_races
        self.event_log: Optional[ShmEventLog] = None
        self.race_detector: Optional[ShmRaceDetector] = None
        #: Test/diagnostic hook run on each freshly built bundle plan
        #: *before* verification and forking — the seeded-race tests
        #: inject overlapping scatter indices here.
        self.bundle_plan_hook = None
        #: Same hook for the near-field shards (called with the list).
        self.shard_hook = None
        #: The FMM solver whose near field runs in the worker rounds (set
        #: by the first :meth:`step` given an FMM callback), the
        #: per-rank shards cut from its plan, and that plan.
        self.fmm = None
        self.fmm_shards: Optional[List[FmmShard]] = None
        self._shard_source = None

        self.n = mesh.n
        self.ghost = mesh.ghost
        self.m = self.n + 2 * self.ghost
        #: Plan-time interior/halo partition of every stacked block (a pure
        #: function of n, so it survives every regrid unchanged).
        self.split = compute_region_split(self.n)
        #: Set once :func:`verify_region_split` has passed for this
        #: executor; the overlap schedule refuses to run without it.
        self._split_verified = False

        self.arena: Optional[ShmArena] = None
        self.accel_arena: Optional[ShmArena] = None
        self.phi_arena: Optional[ShmArena] = None
        self.far_arena: Optional[ShmArena] = None
        self.flux_arena: Optional[ShmArena] = None
        self.arena_view: Optional[np.ndarray] = None
        self.accel_view: Optional[np.ndarray] = None
        self.phi_view: Optional[np.ndarray] = None
        self.far_view: Optional[np.ndarray] = None
        self.flux_view: Optional[np.ndarray] = None
        self.bundle_plan: Optional[GhostBundlePlan] = None
        self.leaf_keys: List[NodeKey] = []
        self.slot: Dict[NodeKey, int] = {}
        self.runs: List[List[Tuple[int, int, float]]] = []
        #: Per-rank, per-run interior cell-centre stacks (parent-computed;
        #: the workers' forked mesh copy cannot be trusted after a replan).
        self.run_xy: List[List[Tuple[np.ndarray, np.ndarray]]] = []
        #: Mesh-free coarse-fine flux correction table (same story).
        self.reflux_table: list = []
        self._views: List[np.ndarray] = []
        #: Topology content hash the current arenas/plans/workers serve
        #: (:meth:`repro.octree.mesh.AmrMesh.fingerprint`).
        self._fingerprint = ""
        #: Arena capacity in leaf slots (current count x ARENA_HEADROOM at
        #: allocation time); regrids that fit are patched in place.
        self.capacity_slots = 0
        #: Ghost face traces reused across bundle plan rebuilds, plus the
        #: fingerprint they are valid for (mirrors HydroIntegrator).
        self._trace_cache = FaceTraceCache()
        self._trace_fp: Any = None
        self.faces_refluxed = 0
        #: Wire-format accounting (pipe mode): payload messages and bytes
        #: relayed last step.
        self.payload_messages = 0
        self.payload_bytes = 0
        #: Per-step phase attribution (seconds): critical-path time spent
        #: in / waiting on the ghost exchange vs computing.  BSP charges
        #: whole-round wall time; overlap charges the workers' own
        #: per-phase clocks (max over ranks per stage).
        self.exchange_wait_s = 0.0
        self.compute_s = 0.0

    # -- lifecycle ------------------------------------------------------------
    def matches(self) -> bool:
        """Whether the current arenas/workers are valid for the mesh."""
        if self._fingerprint != self.mesh.fingerprint():
            return False
        if not self.engine.started:
            return False
        nodes = self.mesh.nodes
        return all(
            nodes[key].subgrid.data is view
            for key, view in zip(self.leaf_keys, self._views)
        )

    def _timer(self, name: str):  # noqa: ANN202
        return (
            self.registry.timer(name) if self.registry is not None
            else nullcontext()
        )

    def _count(self, name: str) -> None:
        if self.registry is not None:
            self.registry.increment(name)

    def notify_regrid(self, delta) -> None:  # noqa: ANN001 - RegridDelta
        """Announce a regrid's exact topology delta.

        Invalidates only the ghost face traces the delta touched; the next
        :meth:`ensure` then rebuilds the bundle plan incrementally from the
        survivors.  Unannounced topology changes drop the whole trace
        cache instead (the pre-delta safety net)."""
        if delta is not None:
            self._trace_cache.invalidate(delta)
            self._trace_fp = _TRACES_PENDING

    def _build_plan_state(self):  # noqa: ANN202
        """Everything that is a pure function of the current mesh topology:
        SFC partition, sorted-leaf arena layout, ghost bundle plan (trace
        cache reused where a regrid left faces intact), slot runs, cell
        centres and the mesh-free reflux table.  Shared by the cold build
        and the in-place replan — both paths produce identical plans.
        """
        mesh = self.mesh
        sfc_partition(mesh, self.nprocs)
        leaves = sorted(mesh.leaves(), key=lambda nd: nd.key)
        self.leaf_keys = [leaf.key for leaf in leaves]
        self.slot = {k: i for i, k in enumerate(self.leaf_keys)}
        n = self.n
        chunk = NFIELDS * self.m**3
        offsets = {leaf.key: i * chunk for i, leaf in enumerate(leaves)}

        fingerprint = mesh.fingerprint()
        if not (
            self._trace_fp == fingerprint
            or self._trace_fp is _TRACES_PENDING
        ):
            self._trace_cache.clear()
        self.bundle_plan = build_bundle_plan(
            mesh, offsets, trace_cache=self._trace_cache
        )
        self._trace_fp = fingerprint

        # Contiguous same-level slot runs per rank: the unit of stacked
        # kernel execution inside each worker.
        self.runs = [[] for _ in range(self.nprocs)]
        start = 0
        while start < len(leaves):
            rank = leaves[start].locality
            level = leaves[start].level
            stop = start
            while (
                stop < len(leaves)
                and leaves[stop].locality == rank
                and leaves[stop].level == level
            ):
                stop += 1
            self.runs[rank].append((start, stop, leaves[start].dx))
            start = stop

        self.run_xy = [[] for _ in range(self.nprocs)]
        for rank, rank_runs in enumerate(self.runs):
            for lo, hi, _ in rank_runs:
                bx = np.empty((hi - lo, n, n, n))
                by = np.empty_like(bx)
                for j, key in enumerate(self.leaf_keys[lo:hi]):
                    cx, cy, _ = mesh.nodes[key].cell_centers()
                    bx[j] = cx
                    by[j] = cy
                self.run_xy[rank].append((bx, by))

        self.reflux_table = build_reflux_table(mesh, self.slot)
        return leaves

    def _can_replan(self) -> bool:
        """Whether the regridded mesh fits the live arenas and pool.

        The rank count is fixed for an executor's lifetime, so only an
        arena overflow (leaf count beyond the allocated headroom) forces
        the re-fork cold path.
        """
        if not self.engine.started or self.arena is None:
            return False
        return sum(1 for _ in self.mesh.leaves()) <= self.capacity_slots

    def ensure(self) -> None:
        """(Re)validate arenas, plans and the worker pool for the mesh.

        Three tiers: a fingerprint match is free; a changed topology that
        fits the allocated arenas is patched in place and broadcast to the
        live workers (:meth:`_replan_in_place`); anything else — first
        build, arena overflow, rebound storage after a :meth:`close` —
        takes the cold path: rebuild everything and re-fork, which is the
        plan invalidation broadcast of last resort (new children inherit
        the new plan, so no stale index array can survive).
        """
        if self.matches():
            return
        if self._can_replan():
            self._replan_in_place()
            return
        self.close()
        mesh = self.mesh
        n, m = self.n, self.m
        chunk = NFIELDS * m**3
        with self._timer("plan.bundle.cold"):
            leaves = self._build_plan_state()
        self._count("plan.bundle.cold_builds")

        cap = max(len(leaves), int(math.ceil(len(leaves) * ARENA_HEADROOM)))
        self.capacity_slots = cap
        self.arena = ShmArena(cap * chunk * 8)
        self.arena_view = self.arena.ndarray((len(leaves) * chunk,))
        adopt_arena(mesh, out=self.arena_view)
        self._views = [mesh.nodes[k].subgrid.data for k in self.leaf_keys]

        self.accel_arena = ShmArena(cap * 3 * n**3 * 8)
        self.accel_view = self.accel_arena.ndarray((len(leaves), 3, n, n, n))
        # Gravity: phi per leaf, and the parent's far field (expansions
        # and octant moments, at most FAR_FLOATS_PER_LEAF per leaf).
        self.phi_arena = ShmArena(cap * n**3 * 8)
        self.phi_view = self.phi_arena.ndarray((len(leaves), n, n, n))
        self.far_arena = ShmArena(cap * FAR_FLOATS_PER_LEAF * 8)
        self.far_view = self.far_arena.ndarray((cap * FAR_FLOATS_PER_LEAF,))
        self.flux_arena = ShmArena(cap * 6 * NFIELDS * n**2 * 8)
        self.flux_view = self.flux_arena.ndarray(
            (len(leaves), 3, 2, NFIELDS, n, n)
        )

        if self.bundle_plan_hook is not None:
            self.bundle_plan_hook(self.bundle_plan)
        if self.verify_plans:
            require_verified(verify_process_plan(self))
            self._split_verified = True
        if self.detect_races:
            self.event_log = ShmEventLog(self.nprocs)
            # The only sanctioned intra-epoch cross-rank edge: on the shm
            # wire the fused update is gated by the ghosts->go handshake,
            # ordering every donor-interior read before any interior write.
            edges = (
                {(PHASE_EXCHANGE, PHASE_UPDATE)}
                if self.overlap and self.wire == "shm" else None
            )
            self.race_detector = ShmRaceDetector(
                self.event_log, ordered_phases=edges
            )
        self._cut_shards()

        # Fork *after* every arena and plan exists: children inherit it all.
        self.engine = ParallelEngine(self.engine.nprocs, timeout=self.engine.timeout)
        if self.race_detector is not None:
            self.engine.round_observer = self.race_detector.scan
        self.engine.start(_make_handler(self))
        self._fingerprint = mesh.fingerprint()

    def _replan_in_place(self) -> None:
        """Patch arenas, partitions and plans for the regridded mesh and
        broadcast the new state to the live workers — no re-fork.

        The per-rank replan payload (new arena layout, slot runs, filtered
        ghost bundles, cell centres, reflux table) *is* the invalidation
        message: every worker rebinds its views inside the barrier, so the
        round after this one runs entirely on the new topology.
        """
        mesh = self.mesh
        n, m = self.n, self.m
        chunk = NFIELDS * m**3
        # Detach surviving leaves from the arena first: the new layout
        # overlaps the old one in the same shm pages, so adoption must not
        # read storage it is about to overwrite.
        nodes = mesh.nodes
        for key, view in zip(self.leaf_keys, self._views):
            node = nodes.get(key)
            if node is not None and node.subgrid.data is view:
                node.subgrid.data = view.copy()

        with self._timer("plan.bundle.delta"):
            leaves = self._build_plan_state()
        self._count("plan.bundle.delta_builds")

        self.arena_view = self.arena.ndarray((len(leaves) * chunk,))
        adopt_arena(mesh, out=self.arena_view)
        self._views = [nodes[k].subgrid.data for k in self.leaf_keys]
        self.accel_view = self.accel_arena.ndarray((len(leaves), 3, n, n, n))
        self.phi_view = self.phi_arena.ndarray((len(leaves), n, n, n))
        self.flux_view = self.flux_arena.ndarray(
            (len(leaves), 3, 2, NFIELDS, n, n)
        )

        if self.bundle_plan_hook is not None:
            self.bundle_plan_hook(self.bundle_plan)
        if self.verify_plans:
            require_verified(verify_process_plan(self))
            self._split_verified = True
        self._cut_shards()

        plan = self.bundle_plan
        common = {
            "leaf_keys": self.leaf_keys,
            "runs": self.runs,
            "reflux_table": self.reflux_table,
            "fingerprint": plan.fingerprint,
        }
        for rank in range(self.nprocs):
            bundles = {
                pair: b for pair, b in plan.bundles.items()
                if pair[1] == rank or pair[0] == rank
            }
            payload = dict(
                common, run_xy=self.run_xy[rank], bundles=bundles,
                fmm_shard=self._wire_shard(rank),
            )
            self.engine.send(rank, ("replan", payload))
        self.engine.gather()
        self.engine.rounds += 1
        if self.engine.round_observer is not None:
            self.engine.round_observer()
        self._fingerprint = mesh.fingerprint()

    def close(self) -> None:
        """Stop the workers and release every shm segment.

        Leaf storage still aliasing the arena is copied back to private
        numpy arrays first — the mesh must stay readable (and steppable by
        another backend) after its shm pages are gone.
        """
        if self.engine.started:
            self.engine.shutdown()
        nodes = self.mesh.nodes
        for key, view in zip(self.leaf_keys, self._views):
            node = nodes.get(key)
            if node is not None and node.subgrid.data is view:
                node.subgrid.data = view.copy()
        self._views = []
        self.leaf_keys = []
        for arena in (
            self.arena, self.accel_arena, self.phi_arena, self.far_arena,
            self.flux_arena,
        ):
            if arena is not None:
                arena.unlink()
        if self.event_log is not None:
            self.event_log.unlink()
        self.event_log = None
        self.race_detector = None
        self.arena = self.accel_arena = self.flux_arena = None
        self.phi_arena = self.far_arena = None
        self.arena_view = self.accel_view = self.flux_view = None
        self.phi_view = self.far_view = None
        self.fmm_shards = None
        self._shard_source = None
        self._fingerprint = ""
        self.capacity_slots = 0

    def __enter__(self) -> "ProcessHydroExecutor":
        return self

    def __exit__(self, *exc) -> None:  # noqa: ANN002
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:  # noqa: BLE001 - interpreter teardown
            pass

    # -- gravity --------------------------------------------------------------
    def _use_solver(self, solver) -> None:  # noqa: ANN001 - FmmSolver
        """Run ``solver``'s near field in the worker rounds from now on."""
        abackend = solver._abackend
        if abackend is not None and abackend.module is not np:
            raise ValueError(
                "the process backend evaluates gravity on host ndarrays in "
                f"shm; it cannot be combined with array backend "
                f"{solver.array_backend!r}"
            )
        self.fmm = solver
        self._shard_source = None

    def _cut_shards(self) -> None:
        """Cut the FMM plan of the current topology into per-rank shards
        by leaf owner and verify them (no-op without an FMM solver)."""
        if self.fmm is None:
            self.fmm_shards = None
            self._shard_source = None
            return
        plan = self.fmm.plan_for(self.mesh)
        if plan.leaf_keys != self.leaf_keys:
            raise RuntimeError("FMM plan and shm arena disagree on leaf order")
        owner = np.empty(len(self.leaf_keys), dtype=np.intp)
        for rank, rank_runs in enumerate(self.runs):
            for lo, hi, _ in rank_runs:
                owner[lo:hi] = rank
        shards = shard_plan(plan, owner, self.nprocs)
        if self.shard_hook is not None:
            self.shard_hook(shards)
        if self.verify_plans:
            require_verified(verify_fmm_shards(plan, shards, owner))
        self.fmm_shards = shards
        self._shard_source = plan

    def _wire_shard(self, rank: int) -> Optional[FmmShard]:
        shards = self.fmm_shards
        return shards[rank].without_templates() if shards else None

    def _ensure_shards(self, plan) -> None:  # noqa: ANN001 - FmmPlan
        """Deliver fresh shards when the FMM plan moved without a topology
        change (the regrid paths cut them in :meth:`ensure`)."""
        if plan is self._shard_source:
            return
        self._cut_shards()
        for rank in range(self.nprocs):
            self.engine.send(rank, ("gplan", self._wire_shard(rank)))
        self.engine.gather()
        self.engine.rounds += 1
        if self.engine.round_observer is not None:
            self.engine.round_observer()

    @declare_effects(writes=[("far", ANY, "shm")])
    def far_buffer(self, size: int) -> np.ndarray:
        """The shm buffer the parent writes the FMM far field into
        (between barriers; the next gravity round reads it)."""
        return self.far_view[:size]

    @declare_effects(writes=[("accel", ANY, "shm"), ("phi", ANY, "shm")])
    def near_field(self, solver, plan):  # noqa: ANN001, ANN201
        """One gravity round: every worker evaluates its shard and writes
        its owned leaves' accel and phi into shm.

        Returns the slowest rank's phase times and per-leaf ``phi`` /
        ``accel`` views of the arenas (plan leaf order) — the parent's
        conservation projections then adjust accel in place, between
        barriers.
        """
        self._ensure_shards(plan)
        segs = self.engine.round(
            ("gravity", solver.order, solver.g_newton,
             solver.empty_mass_threshold)
        )
        slowest = max(segs, key=lambda seg: sum(seg.values()))
        phi = {key: self.phi_view[i] for i, key in enumerate(self.leaf_keys)}
        accel = {
            key: self.accel_view[i] for i, key in enumerate(self.leaf_keys)
        }
        return slowest, phi, accel

    def _gravity(self, gravity) -> None:  # noqa: ANN001 - GravityCallback
        """Fill the accel arena: FMM callbacks in the worker rounds, any
        other callback through the parent."""
        if self.fmm is not None and getattr(gravity, "fmm_solver", None) is self.fmm:
            self.fmm.solve(self.mesh, pool=self)
        else:
            self._write_accel(gravity(self.mesh))

    @declare_effects(writes=[("accel", ANY, "shm")])
    def _write_accel(self, accel_map: Dict[NodeKey, np.ndarray]) -> None:
        """Stage a gravity callback's output into the shm accel arena.

        Parent-side, between barriers: every worker is parked when this
        runs, so the write is ordered against both the previous and the
        next round — the declared effect documents the footprint for the
        shm discipline lint (R007)."""
        for slot, key in enumerate(self.leaf_keys):
            a = accel_map.get(key)
            if a is None:
                self.accel_view[slot] = 0.0
            else:
                self.accel_view[slot] = a

    # -- ghost exchange -------------------------------------------------------
    def _ghost_round(self) -> None:
        if self.wire == "shm":
            self.engine.round(("ghost",))
            return
        # Pipe wire: source ranks pack, the parent relays each bundle's
        # flat payload (serialized as-is — the wire format), destination
        # ranks unpack.  The parent-side relay collects every pack before
        # dispatching unpacks, so no pair of workers can deadlock on a
        # full pipe while sitting in the same barrier.
        packed = self.engine.round(("ghost_pack",))
        by_dst: List[Dict[Tuple[int, int], np.ndarray]] = [
            {} for _ in range(self.nprocs)
        ]
        for payloads in packed:
            for pair, payload in payloads.items():
                by_dst[pair[1]][pair] = payload
                self.payload_messages += 1
                self.payload_bytes += payload.size * 8
        for rank in range(self.nprocs):
            self.engine.send(rank, ("ghost_unpack", by_dst[rank]))
        self.engine.gather()
        self.engine.rounds += 1
        # The manual send/gather above bypasses round(); fire the barrier
        # observer by hand so unpack-epoch events are scanned too.
        if self.engine.round_observer is not None:
            self.engine.round_observer()

    def _overlap_stage(
        self,
        a0: float,
        a1: float,
        dt: float,
        collect_fluxes: bool,
        use_accel: bool,
    ) -> None:
        """One futurized RK stage: a dependency-grained fused round.

        The parent acts as the message router: pipe-wire ghost payloads
        posted mid-round are relayed straight to their destination rank,
        and the shm-wire fused update's go-ahead is granted once every
        rank has finished reading donor interiors.  Reflux (when needed)
        keeps its own barrier round — its flux reads span all ranks.
        """
        engine = self.engine
        fuse_update = not collect_fluxes
        ghosts_done = {"count": 0}

        def on_note(rank: int, tag: Any, payload: Any):
            if tag == "ghosts":
                ghosts_done["count"] += 1
                if ghosts_done["count"] == self.nprocs:
                    return [(r, "go", None) for r in range(self.nprocs)]
                return ()
            _, pair = tag  # ("payload", (src, dst))
            self.payload_messages += 1
            self.payload_bytes += payload.size * 8
            return [(pair[1], tag, payload)]

        segs = engine.round_async(
            (
                "xstage", collect_fluxes, use_accel, self.omega,
                fuse_update, a0, a1, dt,
            ),
            on_note=on_note,
        )
        self.exchange_wait_s += max(
            s["ghost_s"] + s["wait_s"] for s in segs
        )
        self.compute_s += max(s["rhs_s"] for s in segs)
        if collect_fluxes:
            t0 = time.perf_counter()
            self.faces_refluxed += sum(engine.round(("reflux",)))
            engine.round(("update", a0, a1, dt))
            self.compute_s += time.perf_counter() - t0

    # -- the step -------------------------------------------------------------
    def step(
        self,
        dt: float,
        gravity=None,  # noqa: ANN001 - GravityCallback
        gravity_every_stage: bool = False,
    ) -> Dict[NodeKey, float]:
        """One RK3 step across the worker pool; returns per-leaf signals.

        Gravity (when given) runs before ``begin`` — or, with
        ``gravity_every_stage``, again between each later stage's ghost and
        rhs rounds.  An FMM callback's near field is a worker round of its
        own (:meth:`near_field`); the parent restricts at the end.  All of
        it reads/writes the shm arenas directly, so the workers never see
        a stale field.
        """
        solver = getattr(gravity, "fmm_solver", None)
        if solver is not None and solver is not self.fmm:
            self._use_solver(solver)
        self.ensure()
        engine = self.engine
        self.payload_messages = 0
        self.payload_bytes = 0
        self.exchange_wait_s = 0.0
        self.compute_s = 0.0

        use_accel = gravity is not None
        if use_accel:
            self._gravity(gravity)
        collect_fluxes = (
            self.reflux and self.bundle_plan is not None
            and any(b.fine_dst.size for b in self.bundle_plan.bundles.values())
        )
        if self.overlap and not self._split_verified:
            # The schedule below trusts the split partition for coverage
            # and write-disjointness; refuse to overlap on an unverified
            # split even when whole-plan verification is off.
            require_verified(
                verify_region_split(self.split, self.n, self.ghost)
            )
            self._split_verified = True

        engine.round(("begin",))
        for stage_index, (a0, a1) in enumerate(_RK3_STAGES):
            # Per-stage accel rewrites need the parent between the ghost
            # fill and the rhs — a seam the fused round does not have, so
            # those stages fall back to the barrier schedule.
            rewrite_accel = use_accel and gravity_every_stage and stage_index
            if self.overlap and not rewrite_accel:
                self._overlap_stage(a0, a1, dt, collect_fluxes, use_accel)
                continue
            t0 = time.perf_counter()
            self._ghost_round()
            self.exchange_wait_s += time.perf_counter() - t0
            if rewrite_accel:
                # Workers are between rounds (idle at the barrier), so the
                # accel arena they read next round may be rewritten.
                self._gravity(gravity)
            t0 = time.perf_counter()
            # BSP ablation baseline (and the per-stage accel-rewrite path):
            # the barrier schedule is the comparison point for the overlap
            # crosscheck, so these rounds stay blocking on purpose.
            engine.round(  # reprolint: sanctioned-barrier
                ("rhs", collect_fluxes, use_accel, self.omega)
            )
            if collect_fluxes:
                self.faces_refluxed += sum(
                    engine.round(("reflux",))  # reprolint: sanctioned-barrier
                )
            engine.round(("update", a0, a1, dt))  # reprolint: sanctioned-barrier
            self.compute_s += time.perf_counter() - t0

        signal_maps = engine.round(("finish",))
        if self.registry is not None:
            engine.harvest_timers(self.registry)
        self.mesh.restrict_all()
        signals: Dict[NodeKey, float] = {}
        for per_worker in signal_maps:
            signals.update(per_worker)
        return signals
