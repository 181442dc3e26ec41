"""The FMM driver: cached plan phase plus batched execute phase.

The traversal realises Octo-Tiger's solver phases on an adaptive,
2:1-balanced octree, classifying node pairs three ways:

* **far** — separation at least ``2 / theta`` node sizes: classic M2L with
  the full node multipoles (batched per target),
* **near** — separated leaf pairs closer than that: M2L from *octant
  sub-moments* of the source's cells.  Octo-Tiger resolves these
  interactions per cell (each cell is a monopole with its own interaction
  list); octant granularity reproduces that accuracy scaling while staying
  vectorisable in NumPy,
* **P2P** — touching leaf pairs: direct cell-cell summation.

With ``theta = 0.5`` the far criterion is a four-node-size separation and
the near band covers the paper's "same-level cell-to-cell interactions"
stencil — the Multipole kernel whose task-splitting Fig. 9 studies.

Plan / execute split
--------------------
Everything that depends only on mesh *topology* — the dual tree traversal,
interaction lists, CSR source-index arrays, leaf cell positions and the
P2P geometry-class templates — lives in a cached
:class:`~repro.gravity.plan.FmmPlan`, keyed on
``AmrMesh.topology_version`` so it invalidates automatically after a
regrid.  :meth:`FmmSolver.solve` is the batched execute phase: stacked
P2M/M2M moments, a few segmented M2L calls per level and vectorised L2L
(the tree phases, producing a :class:`FarField`), then the near-field
phase :func:`evaluate_shard` — far L2P, cache-blocked octant M2L with its
near L2P, and fixed-width GEMM chunks per P2P geometry class — over a
:class:`~repro.gravity.plan.FmmShard` of target leaves.  In-process that
is one shard holding every leaf; the process backend runs one shard per
worker (see ``docs/parallel.md``).  It is numerically equivalent (to
~1e-13 relative) to :meth:`FmmSolver.solve_reference`, the retained
per-node reference implementation, and produces identical
:class:`FmmStats`.  Per-phase wall times are reported through
:mod:`repro.profiling` under ``fmm.solve``, ``fmm.plan``,
``fmm.p2m_m2m``, ``fmm.m2l`` (split into ``fmm.m2l.far`` and
``fmm.m2l.near``), ``fmm.l2p`` and ``fmm.p2p``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # import cycle: repro.core.__init__ pulls in the driver
    from repro.core.plancache import PlanCache

import numpy as np

from repro.analysis.planverify import require_verified, verify_fmm_split
from repro.gravity.conservation import project_angular_momentum, project_momentum
from repro.gravity.kernels import m2l_batch, m2l_segmented
from repro.gravity.multipole import (
    LocalExpansion,
    Multipole,
    batched_combine,
    batched_local_evaluate,
    batched_local_shift,
    batched_moments_from_points,
    octant_ids,
    stacked_octant_moments,
)
from repro.gravity.pairwise import p2p_apply_class, pairwise_accumulate
from repro.gravity.plan import (
    FmmPlan,
    FmmShard,
    PairState,
    build_plan,
    count_m2l_by_level,
    traverse,
    update_plan,
)
from repro.octree.fields import Field
from repro.octree.mesh import AmrMesh
from repro.octree.node import NodeKey, OctreeNode
from repro.profiling.apex import CounterRegistry, global_registry


@dataclass
class FmmStats:
    """Workload counters: these drive the performance simulator's gravity
    phase model."""

    p2m: int = 0
    m2m: int = 0
    m2l_pairs: int = 0  # far pairs, full-node multipoles
    near_pairs: int = 0  # octant-resolved M2L pairs
    p2p_pairs: int = 0
    l2l: int = 0
    #: Per-level M2L interaction counts.  Each far pair is counted under
    #: *both* endpoints' levels (one M2L conversion per direction), so the
    #: values sum to ``2 * m2l_pairs``.
    m2l_by_level: Dict[int, int] = field(default_factory=dict)

    @property
    def multipole_interactions(self) -> int:
        """Total same-level interaction count (the Fig. 9 kernel workload)."""
        return self.m2l_pairs + self.near_pairs


@dataclass
class FmmResult:
    phi: Dict[NodeKey, np.ndarray]  # (N, N, N) per leaf
    accel: Dict[NodeKey, np.ndarray]  # (3, N, N, N) per leaf
    stats: FmmStats


#: Far-field state per leaf (4 local tensors + expansion centre) and per
#: octant-participant leaf (4 moment tensors for each of its 8 octants).
_LEAF_FLOATS = 1 + 3 + 9 + 27 + 3
_PART_FLOATS = 8 * (1 + 3 + 9 + 27)
#: Upper bound of far-field floats per leaf slot (every leaf a participant).
FAR_FLOATS_PER_LEAF = _LEAF_FLOATS + _PART_FLOATS


@dataclass
class FarField:
    """What the tree phases hand the near-field phase.

    Per leaf slot (plan order): the local expansion ``l0..l3`` after L2L
    and its centre ``com``.  Per octant row (participant ``p``, octant
    ``o`` at row ``8 p + o``): the octant sub-moments ``om/oc/oq/oo``.
    All views of one flat float buffer (:meth:`on`), so a process pool
    can keep it in a small shm arena its workers already map.
    """

    l0: np.ndarray
    l1: np.ndarray
    l2: np.ndarray
    l3: np.ndarray
    com: np.ndarray
    om: np.ndarray
    oc: np.ndarray
    oq: np.ndarray
    oo: np.ndarray

    @staticmethod
    def floats(n_leaves: int, n_part: int) -> int:
        return _LEAF_FLOATS * n_leaves + _PART_FLOATS * n_part

    @classmethod
    def on(cls, flat: np.ndarray, n_leaves: int, n_part: int) -> "FarField":
        """Views of ``flat`` laid out for ``n_leaves`` / ``n_part``."""
        rows = 8 * n_part
        shapes = (
            (n_leaves,), (n_leaves, 3), (n_leaves, 3, 3), (n_leaves, 3, 3, 3),
            (n_leaves, 3),
            (rows,), (rows, 3), (rows, 3, 3), (rows, 3, 3, 3),
        )
        views = []
        offset = 0
        for shape in shapes:
            size = int(np.prod(shape))
            views.append(flat[offset:offset + size].reshape(shape))
            offset += size
        return cls(*views)


def evaluate_shard(
    shard: FmmShard,
    far: FarField,
    mass_src: np.ndarray,
    g_newton: float,
    order: int,
    empty_mass_threshold: float = 0.0,
    m2l: Optional[Callable] = None,
    p2p: Optional[Callable] = None,
) -> Tuple[np.ndarray, np.ndarray, Dict[str, float]]:
    """The near-field phase for one shard's target leaves.

    Far L2P over every target, then per cache block the octant M2L and
    its near L2P, then the class-batched P2P direct sums.  ``mass_src``
    ``(S, nc)`` holds the cell masses of ``shard.src_slots``; ``m2l`` /
    ``p2p`` override the host kernels (the array-backend dispatchers).
    Returns ``phi (T, nc)``, ``acc (T, nc, 3)`` and the wall seconds of
    the near M2L, L2P and P2P parts.

    Every target's sums are formed exactly as in the unsharded plan —
    the same segments, classes and edge order — so any sharding and any
    blocking give identical bits.
    """
    if m2l is None:
        m2l = partial(m2l_segmented, order=order)
    if p2p is None:
        def p2p(t1, t3, tgt, pos_t, mass_s, pos_s, inv_dx, phi_out, acc_out, width):  # noqa: ANN001, ANN202
            p2p_apply_class(t1, t3, tgt, pos_t, mass_s, pos_s, inv_dx,
                            g_newton, phi_out, acc_out, width=width)

    t0 = time.perf_counter()
    tg = shard.targets
    delta = shard.tgt_pos - far.com[tg][:, None, :]
    phi, acc = batched_local_evaluate(
        far.l0[tg], far.l1[tg], far.l2[tg], far.l3[tg], delta, g_newton
    )
    l2p_s = time.perf_counter() - t0

    m2l_s = 0.0
    sub = shard.oct_cells.shape[1]
    cells = shard.oct_cells[None, :, :]
    oct_com = far.oc.reshape(-1, 8, 3)
    ip = shard.near_indptr
    for a, b in shard.blocks:
        t0 = time.perf_counter()
        lo = ip[8 * a]
        rows = shard.near_rows[lo:ip[8 * b]]
        seg = ip[8 * a:8 * b + 1] - lo
        centers = np.repeat(
            far.oc[shard.near_center_rows[8 * a:8 * b]], np.diff(seg), axis=0
        )
        q0, q1, q2, q3 = m2l(
            far.om[rows], far.oc[rows], far.oq[rows], far.oo[rows],
            centers, seg,
        )
        t1 = time.perf_counter()
        m2l_s += t1 - t0
        nb = b - a
        local = shard.near_local[a:b]
        opos = shard.tgt_pos[local][:, shard.oct_cells, :]
        ocom = oct_com[shard.near_tgt_rows[a:b]]
        odelta = (opos - ocom[:, :, None, :]).reshape(nb * 8, sub, 3)
        po, ao = batched_local_evaluate(q0, q1, q2, q3, odelta, g_newton)
        phi[local[:, None, None], cells] += po.reshape(nb, 8, sub)
        acc[local[:, None, None], cells] += ao.reshape(nb, 8, sub, 3)
        l2p_s += time.perf_counter() - t1

    t0 = time.perf_counter()
    thr = empty_mass_threshold
    if thr > 0.0:
        src_total = mass_src.sum(axis=1)
    for cls in shard.p2p:
        tgt, src, inv_dx = cls.tgt, cls.src, cls.inv_dx
        if thr > 0.0:
            keep = src_total[src] > thr
            if not keep.any():
                continue
            if not keep.all():
                tgt, src, inv_dx = tgt[keep], src[keep], inv_dx[keep]
        t1, t3 = cls.templates()
        p2p(
            t1, t3, tgt, shard.tgt_pos[tgt], mass_src[src],
            shard.src_pos[src], inv_dx, phi, acc, cls.width,
        )
    p2p_s = time.perf_counter() - t0
    return phi, acc, {"m2l_near_s": m2l_s, "l2p_s": l2p_s, "p2p_s": p2p_s}


class FmmSolver:
    """Computes the gravitational field of the mesh's density distribution.

    ``order`` is the multipole order (1 monopole / 2 +quadrupole /
    3 +octupole), ``theta`` the opening criterion, and the correction flags
    control the machine-precision conservation projections.

    The solver caches an :class:`~repro.gravity.plan.FmmPlan` per mesh
    topology (see :meth:`plan_for`); set ``registry`` to route the
    per-phase timers into a specific :class:`CounterRegistry` instead of
    the process-global one.
    """

    def __init__(
        self,
        order: int = 3,
        theta: float = 0.5,
        g_newton: float = 1.0,
        momentum_correction: bool = True,
        angmom_correction: bool = True,
        empty_mass_threshold: float = 0.0,
        m2l_split: int = 0,
        verify_plans: bool = True,
        array_backend: Optional[str] = None,
        plan_cache: Optional["PlanCache"] = None,
    ) -> None:
        if not 0.0 < theta <= 1.0:
            raise ValueError("theta must be in (0, 1]")
        self.order = order
        self.theta = theta
        self.g_newton = g_newton
        self.momentum_correction = momentum_correction
        self.angmom_correction = angmom_correction
        #: Maximum M2L rows per far batch (0 = unsplit).  Heavy same-level
        #: batches are sharded via :meth:`FmmPlan.split` so a scheduler can
        #: interleave them with communication (the paper's SVII-C
        #: multipole work-splitting); results are bit-identical.
        self.m2l_split = m2l_split
        #: Sub-grids whose total mass is below this act as pure vacuum
        #: sources (their P2P/M2L source side is skipped).  Star scenarios
        #: are mostly floor-density vacuum; skipping it changes forces by
        #: O(threshold / M_total) while cutting most of the P2P cost.
        self.empty_mass_threshold = empty_mass_threshold
        self.last_stats: Optional[FmmStats] = None
        self.registry: Optional[CounterRegistry] = None
        self._plan: Optional[FmmPlan] = None
        #: Optional persistent content-addressed plan store
        #: (:class:`repro.core.plancache.PlanCache`): on a topology the
        #: in-memory plan does not match, the canonical traversal pair
        #: state is looked up by mesh fingerprint before paying a cold
        #: dual-tree traversal, and cold results are stored back.
        self.plan_cache = plan_cache
        #: Statically verify every sharded M2L batch decomposition before
        #: executing it (:func:`repro.analysis.planverify.verify_fmm_split`):
        #: shard target sets must be disjoint and reproduce the unsplit
        #: order, or the solve refuses to run.  Memoised per (plan, split).
        self.verify_plans = verify_plans
        self._verified_splits = set()
        #: Array backend for the batched M2L / P2P GEMM kernels
        #: (:mod:`repro.kokkos.backend`).  ``None`` keeps the seed host
        #: path.  Host-storage backends (``numpy``/``pyjit``/``numba``)
        #: run in place and are bit-identical; device backends
        #: boundary-convert per batch (see :meth:`_m2l_dispatch`).
        self.array_backend = array_backend
        if array_backend is not None:
            from repro.kokkos.backend import get_backend

            self._abackend = get_backend(array_backend)
        else:
            self._abackend = None

    # -- plan cache -----------------------------------------------------------
    def plan_for(self, mesh: AmrMesh) -> FmmPlan:
        """The cached traversal plan for ``mesh``, rebuilt only when the
        mesh topology (by content :meth:`~repro.octree.mesh.AmrMesh.\
fingerprint`) or ``theta`` changed.

        This is the sanctioned cache-miss hook (reprolint R010): on a miss
        it tries, in order, (1) an incremental delta rebuild from the
        previous plan (:func:`repro.gravity.plan.update_plan` — exact, see
        ``docs/plan_lifecycle.md``), (2) the persistent plan cache keyed on
        the fingerprint, (3) the cold dual-tree traversal, storing the
        result back into the cache.  The three paths are bit-identical;
        the ``plan.fmm.{delta,cache_hit,cold}`` timers record which one
        ran.
        """
        if self._plan is not None and self._plan.matches(mesh, self.theta):
            return self._plan
        reg = self._registry()
        fingerprint = mesh.fingerprint()
        plan: Optional[FmmPlan] = None
        # Donating recomputable state (cell positions, P2P templates) from
        # the previous plan is only sound within one (n, domain_size)
        # geometry family — node keys alone don't pin the geometry.
        reuse = self._plan
        if reuse is not None:
            old_mesh = reuse.mesh_ref()
            if reuse.n != mesh.n or (
                old_mesh is not mesh
                and (old_mesh is None or old_mesh.domain_size != mesh.domain_size)
            ):
                reuse = None
        if self._plan is not None:
            with reg.timer("plan.fmm.delta"):
                plan = update_plan(self._plan, mesh, self.theta)
            if plan is not None:
                reg.increment("plan.fmm.delta_builds")
                # Delta-assembled pair state is bit-identical to a cold
                # traversal's — seed the cache with it too, or topologies
                # only visited incrementally would miss on every rerun.
                if self.plan_cache is not None and not self.plan_cache.contains(
                    "fmm", fingerprint, {"theta": self.theta, "n": mesh.n}
                ):
                    self.plan_cache.store(
                        "fmm",
                        fingerprint,
                        {"theta": self.theta, "n": mesh.n},
                        plan.pair_state.to_payload(),
                    )
        if plan is None and self.plan_cache is not None:
            payload = self.plan_cache.load(
                "fmm", fingerprint, {"theta": self.theta, "n": mesh.n}
            )
            if payload is not None:
                with reg.timer("plan.fmm.cache_hit"):
                    plan = build_plan(
                        mesh,
                        self.theta,
                        pair_state=PairState.from_payload(payload),
                        reuse=reuse,
                    )
                reg.increment("plan.fmm.cache_hit_builds")
        if plan is None:
            with reg.timer("plan.fmm.cold"):
                plan = build_plan(mesh, self.theta, reuse=reuse)  # reprolint: sanctioned-cold-build
            reg.increment("plan.fmm.cold_builds")
            if self.plan_cache is not None:
                self.plan_cache.store(
                    "fmm",
                    fingerprint,
                    {"theta": self.theta, "n": mesh.n},
                    plan.pair_state.to_payload(),
                )
        self._plan = plan
        reg.increment("fmm.plan_builds")
        return self._plan

    def invalidate_plan(self) -> None:
        """Drop the cached plan (the next solve rebuilds it)."""
        self._plan = None

    def _registry(self) -> CounterRegistry:
        return self.registry if self.registry is not None else global_registry()

    # -- array-backend dispatch ------------------------------------------------
    def _m2l_dispatch(self, mass, com, quad, octu, centers, indptr):
        """Route one segmented M2L batch through the selected array backend.

        Host-storage backends (module is NumPy) run in place — bit-identical
        to the seed path.  Device backends boundary-convert the batch in and
        the four local tensors back out; this is solver-internal staging of
        raw batch arrays, not a View crossing, so it does not go through
        ``deep_copy``.
        """
        b = self._abackend
        if b is None or b.module is np:
            return m2l_segmented(
                mass, com, quad, octu, centers, indptr, order=self.order
            )
        out = m2l_segmented(
            b.from_numpy(mass),
            b.from_numpy(com),
            b.from_numpy(quad),
            b.from_numpy(octu),
            b.from_numpy(centers),
            indptr,
            order=self.order,
            xp=b.module,
        )
        return tuple(b.to_numpy(t) for t in out)

    def _p2p_dispatch(
        self, t1, t3, tgt, pos_t, mass_s, pos_s, inv_dx, phi_out, acc_out,
        width,
    ):
        """Route one P2P geometry class through the selected array backend."""
        b = self._abackend
        if b is None or b.module is np:
            p2p_apply_class(
                t1, t3, tgt, pos_t, mass_s, pos_s, inv_dx,
                self.g_newton, phi_out, acc_out, width=width,
            )
            return
        nc = phi_out.shape[1]
        dphi = b.zeros(phi_out.shape)
        dacc = b.zeros(acc_out.shape)
        p2p_apply_class(
            b.from_numpy(t1), b.from_numpy(t3), tgt,
            b.from_numpy(pos_t), b.from_numpy(mass_s), b.from_numpy(pos_s),
            b.from_numpy(inv_dx), self.g_newton, dphi, dacc, xp=b.module,
            width=width,
        )
        phi_out += b.to_numpy(dphi).reshape(-1, nc)
        acc_out += b.to_numpy(dacc).reshape(-1, nc, 3)

    def _check_split(self, plan, split):  # noqa: ANN001
        """Refuse unverified shard decompositions (once per plan+split)."""
        if not self.verify_plans:
            return
        key = (id(plan), split)
        if key not in self._verified_splits:
            require_verified(verify_fmm_split(plan, split))
            self._verified_splits.add(key)

    # -- leaf particle data ---------------------------------------------------
    @staticmethod
    def leaf_points(leaf: OctreeNode) -> Tuple[np.ndarray, np.ndarray]:
        """Cell centres (nc, 3) and cell masses (nc,) of a leaf."""
        x, y, z = leaf.cell_centers()
        pos = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)
        rho = leaf.subgrid.interior_view(Field.RHO).ravel()
        return pos, rho * leaf.cell_volume

    def _stats_from_plan(self, plan: FmmPlan) -> FmmStats:
        return FmmStats(
            p2m=plan.n_p2m,
            m2m=plan.n_m2m,
            m2l_pairs=plan.n_m2l_pairs,
            near_pairs=plan.n_near_pairs,
            p2p_pairs=plan.p2p_pair_count,
            l2l=plan.n_l2l,
            m2l_by_level=dict(plan.m2l_by_level),
        )

    # -- the solve ------------------------------------------------------------
    def solve(self, mesh: AmrMesh, pool=None) -> FmmResult:  # noqa: ANN001
        """Plan-cached, batched solve (see the module docstring).

        The parent runs the tree phases (P2M/M2M, octant moments, far M2L,
        L2L) into a :class:`FarField`; the near-field phase
        (:func:`evaluate_shard`) then forms every leaf's phi and accel.
        In-process that is the plan's single shard.  With ``pool`` — a
        :class:`~repro.hydro.process_backend.ProcessHydroExecutor` whose
        arenas hold ``mesh`` — the far field goes to the pool's shm arena
        and each worker evaluates the shard of the leaves it owns, writing
        accel/phi straight into shm; the returned dicts then view those
        arenas.  Both paths produce identical bits.
        """
        reg = self._registry()
        with reg.timer("fmm.solve"):
            with reg.timer("fmm.plan"):
                plan = self.plan_for(mesh)
            stats = self._stats_from_plan(plan)
            n = mesh.n
            n_leaves = len(plan.leaf_keys)
            n_part = int(plan.part_slots.size)
            size = FarField.floats(n_leaves, n_part)
            flat = pool.far_buffer(size) if pool is not None else np.empty(size)
            far = FarField.on(flat, n_leaves, n_part)
            mass, far_s, l2l_s = self._tree_phases(plan, mesh, far, reg)

            if pool is None:
                shard = plan.serial_shard()
                src = shard.src_slots
                phi_flat, acc_flat, seg = evaluate_shard(
                    shard, far, mass if src.size == n_leaves else mass[src],
                    self.g_newton, self.order, self.empty_mass_threshold,
                    m2l=self._m2l_dispatch, p2p=self._p2p_dispatch,
                )
                # Component-major and contiguous, like the pool's accel
                # arena: the projections' reductions see the same layout.
                acc_cm = np.ascontiguousarray(acc_flat.transpose(0, 2, 1))
                phi: Dict[NodeKey, np.ndarray] = {}
                accel: Dict[NodeKey, np.ndarray] = {}
                for i, key in enumerate(plan.leaf_keys):
                    phi[key] = phi_flat[i].reshape(n, n, n)
                    accel[key] = acc_cm[i].reshape(3, n, n, n)
            else:
                seg, phi, accel = pool.near_field(self, plan)

            # Critical-path phase totals: parent phases plus the slowest
            # rank's near-field phases, so they sum to at most fmm.solve.
            reg.sample("fmm.m2l.far", far_s)
            reg.sample("fmm.m2l.near", seg["m2l_near_s"])
            reg.sample("fmm.m2l", far_s + seg["m2l_near_s"])
            reg.sample("fmm.l2p", l2l_s + seg["l2p_s"])
            reg.sample("fmm.p2p", seg["p2p_s"])

            # Conservation projections, over every leaf in plan order.
            masses = {key: mass[i] for i, key in enumerate(plan.leaf_keys)}
            if self.momentum_correction:
                project_momentum(masses, accel)
            if self.angmom_correction:
                positions = {
                    key: plan.leaf_pos[i] for i, key in enumerate(plan.leaf_keys)
                }
                project_angular_momentum(masses, positions, accel)

        self.last_stats = stats
        return FmmResult(phi, accel, stats)

    def _tree_phases(
        self, plan: FmmPlan, mesh: AmrMesh, far: "FarField", reg: CounterRegistry
    ) -> Tuple[np.ndarray, float, float]:
        """P2M/M2M and octant moments, far M2L, L2L — written into ``far``.

        Returns the leaf cell masses ``(L, nc)`` and the far-M2L and L2L
        wall seconds (P2M/M2M is timed here as ``fmm.p2m_m2m``).
        """
        n_nodes = len(plan.node_keys)
        with reg.timer("fmm.p2m_m2m"):
            rho = np.stack(
                [
                    mesh.nodes[k].subgrid.interior_view(Field.RHO).ravel()
                    for k in plan.leaf_keys
                ]
            )
            mass = rho * plan.cell_vol[:, None]  # (L, nc)
            lm, lc, lq, lo = batched_moments_from_points(
                plan.leaf_pos, mass, plan.node_center[plan.leaf_node_idx]
            )
            mom_m = np.zeros(n_nodes)
            mom_c = plan.node_center.copy()
            mom_q = np.zeros((n_nodes, 3, 3))
            mom_o = np.zeros((n_nodes, 3, 3, 3))
            mom_m[plan.leaf_node_idx] = lm
            mom_c[plan.leaf_node_idx] = lc
            mom_q[plan.leaf_node_idx] = lq
            mom_o[plan.leaf_node_idx] = lo
            for int_idx, child_idx in plan.level_interiors:  # deepest first
                cm, cc, cq, co = batched_combine(
                    mom_m[child_idx],
                    mom_c[child_idx],
                    mom_q[child_idx],
                    mom_o[child_idx],
                    plan.node_center[int_idx],
                )
                mom_m[int_idx] = cm
                mom_c[int_idx] = cc
                mom_q[int_idx] = cq
                mom_o[int_idx] = co

            # Octant sub-moments of every near-pair participant: the
            # sources (and expansion centres) of the near-field M2L.
            n_part = len(plan.part_slots)
            if n_part:
                sub = plan.oct_cells.shape[1]
                ppos = plan.leaf_pos[plan.part_slots][:, plan.oct_cells, :]
                pmass = mass[plan.part_slots][:, plan.oct_cells]
                far.om[...], far.oc[...], far.oq[...], far.oo[...] = (
                    batched_moments_from_points(
                        ppos.reshape(n_part * 8, sub, 3),
                        pmass.reshape(n_part * 8, sub),
                        plan.oct_geo_centers.reshape(n_part * 8, 3),
                    )
                )

        # Far M2L per level through the segmented kernel.
        t0 = time.perf_counter()
        l0 = np.zeros(n_nodes)
        l1 = np.zeros((n_nodes, 3))
        l2 = np.zeros((n_nodes, 3, 3))
        l3 = np.zeros((n_nodes, 3, 3, 3))
        self._check_split(plan, self.m2l_split)
        for fl in plan.split(self.m2l_split):
            centers = np.repeat(mom_c[fl.tgt_idx], np.diff(fl.indptr), axis=0)
            s0, s1, s2, s3 = self._m2l_dispatch(
                mom_m[fl.src_idx],
                mom_c[fl.src_idx],
                mom_q[fl.src_idx],
                mom_o[fl.src_idx],
                centers,
                fl.indptr,
            )
            l0[fl.tgt_idx] += s0
            l1[fl.tgt_idx] += s1
            l2[fl.tgt_idx] += s2
            l3[fl.tgt_idx] += s3
        t1 = time.perf_counter()

        # Top-down L2L to the leaves.
        for int_idx, child_idx in reversed(plan.level_interiors):
            d = (mom_c[child_idx] - mom_c[int_idx][:, None, :]).reshape(-1, 3)
            s0, s1, s2, s3 = batched_local_shift(
                np.repeat(l0[int_idx], 8),
                np.repeat(l1[int_idx], 8, axis=0),
                np.repeat(l2[int_idx], 8, axis=0),
                np.repeat(l3[int_idx], 8, axis=0),
                d,
            )
            flat = child_idx.reshape(-1)
            l0[flat] += s0
            l1[flat] += s1
            l2[flat] += s2
            l3[flat] += s3
        idx = plan.leaf_node_idx
        far.l0[...] = l0[idx]
        far.l1[...] = l1[idx]
        far.l2[...] = l2[idx]
        far.l3[...] = l3[idx]
        far.com[...] = mom_c[idx]
        return mass, t1 - t0, time.perf_counter() - t1

    # -- reference implementation ---------------------------------------------
    def _traverse(
        self, mesh: AmrMesh
    ) -> Tuple[
        List[Tuple[NodeKey, NodeKey]],
        List[Tuple[NodeKey, NodeKey]],
        List[Tuple[NodeKey, NodeKey]],
    ]:
        """Dual tree traversal (delegates to :func:`repro.gravity.plan.traverse`)."""
        return traverse(mesh, self.theta)

    def solve_reference(self, mesh: AmrMesh) -> FmmResult:
        """Unbatched per-node solve, kept as the numerical reference.

        Re-derives the traversal and every intermediate on each call; used
        by the equivalence tests (the planned :meth:`solve` must agree to
        ~1e-13 relative) and as documentation of the underlying algorithm.
        """
        stats = FmmStats()
        leaves = mesh.leaves()
        points: Dict[NodeKey, Tuple[np.ndarray, np.ndarray]] = {
            leaf.key: self.leaf_points(leaf) for leaf in leaves
        }

        # Phase 1: bottom-up moments (P2M on leaves, M2M upward).
        moments: Dict[NodeKey, Multipole] = {}
        max_level = mesh.max_level()
        for level in range(max_level, -1, -1):
            for node in mesh.nodes_at_level(level):
                if node.is_leaf:
                    pos, mass = points[node.key]
                    moments[node.key] = Multipole.from_points(
                        pos, mass, fallback_center=node.center
                    )
                    stats.p2m += 1
                else:
                    moments[node.key] = Multipole.combine(
                        [moments[k] for k in node.children_keys()],
                        fallback_center=node.center,
                    )
                    stats.m2m += 1

        far_pairs, near_pairs, p2p_pairs = self._traverse(mesh)
        stats.m2l_pairs = len(far_pairs)
        stats.near_pairs = len(near_pairs)
        stats.m2l_by_level = count_m2l_by_level(far_pairs)

        # Octant sub-moments for every leaf that participates in near pairs.
        octants: Dict[NodeKey, Tuple[np.ndarray, ...]] = {}

        def octants_of(key: NodeKey) -> Tuple[np.ndarray, ...]:
            if key not in octants:
                leaf = mesh.nodes[key]
                pos, mass = points[key]
                octants[key] = stacked_octant_moments(
                    pos, mass, mesh.n, leaf.center, leaf.node_size
                )
            return octants[key]

        # Phase 2: same-level cell-to-cell interactions, batched per target.
        far_sources: Dict[NodeKey, List[NodeKey]] = {}
        near_sources: Dict[NodeKey, List[NodeKey]] = {}
        for ka, kb in far_pairs:
            far_sources.setdefault(ka, []).append(kb)
            far_sources.setdefault(kb, []).append(ka)
        for ka, kb in near_pairs:
            near_sources.setdefault(ka, []).append(kb)
            near_sources.setdefault(kb, []).append(ka)

        locals_: Dict[NodeKey, LocalExpansion] = {
            key: LocalExpansion() for key in mesh.nodes
        }
        # Far sources expand about the target node's COM.
        for target_key, sources in far_sources.items():
            mass_list = []
            com_list = []
            quad_list = []
            octu_list = []
            for src in sources:
                mp = moments[src]
                if mp.mass <= 0.0:
                    continue
                mass_list.append(mp.mass)
                com_list.append(mp.center)
                quad_list.append(mp.quad)
                octu_list.append(mp.octu)
            if not mass_list:
                continue
            locals_[target_key] += m2l_batch(
                np.array(mass_list),
                np.stack(com_list),
                np.stack(quad_list),
                np.stack(octu_list),
                moments[target_key].center,
                order=self.order,
            )

        # Near sources expand about *octant* centres of the target leaf —
        # halving both the source extent (octant sub-moments) and the target
        # Taylor radius, which is what keeps marginally separated pairs
        # accurate.  Contributions are stored per octant and evaluated in
        # the L2P step below.
        octant_locals: Dict[NodeKey, List[LocalExpansion]] = {}
        for target_key, sources in near_sources.items():
            mass_list = []
            com_list = []
            quad_list = []
            octu_list = []
            for src in sources:
                om, oc, oq, oo = octants_of(src)
                keep = om > 0.0
                if keep.any():
                    mass_list.append(om[keep])
                    com_list.append(oc[keep])
                    quad_list.append(oq[keep])
                    octu_list.append(oo[keep])
            if not mass_list:
                continue
            src_mass = np.concatenate(mass_list)
            src_com = np.concatenate(com_list)
            src_quad = np.concatenate(quad_list)
            src_octu = np.concatenate(octu_list)
            tgt_oct = octants_of(target_key)
            per_octant = []
            for o in range(8):
                per_octant.append(
                    m2l_batch(
                        src_mass,
                        src_com,
                        src_quad,
                        src_octu,
                        tgt_oct[1][o],  # octant COM (geometric centre if empty)
                        order=self.order,
                    )
                )
            octant_locals[target_key] = per_octant

        # Phase 3: top-down L2L.
        for level in range(0, max_level):
            for node in mesh.nodes_at_level(level):
                if node.is_leaf:
                    continue
                parent_local = locals_[node.key]
                parent_com = moments[node.key].center
                for child_key in node.children_keys():
                    child_com = moments[child_key].center
                    locals_[child_key] += parent_local.shifted(child_com - parent_com)
                    stats.l2l += 1

        # Far-field evaluation per leaf cell (L2P).
        phi: Dict[NodeKey, np.ndarray] = {}
        accel: Dict[NodeKey, np.ndarray] = {}
        n = mesh.n
        oct_of_cell = octant_ids(n)
        for leaf in leaves:
            pos, _ = points[leaf.key]
            com = moments[leaf.key].center
            p, a = locals_[leaf.key].evaluate(pos - com, self.g_newton)
            per_octant = octant_locals.get(leaf.key)
            if per_octant is not None:
                oct_coms = octants_of(leaf.key)[1]
                for o in range(8):
                    sel = oct_of_cell == o
                    po, ao = per_octant[o].evaluate(
                        pos[sel] - oct_coms[o], self.g_newton
                    )
                    p[sel] += po
                    a[sel] += ao
            phi[leaf.key] = p.reshape(n, n, n)
            accel[leaf.key] = a.T.reshape(3, n, n, n)

        # Near field: direct sums.
        for ka, kb in p2p_pairs:
            stats.p2p_pairs += 1
            self._p2p(points, phi, accel, ka, kb, n)

        # Conservation projections.
        masses = {leaf.key: points[leaf.key][1] for leaf in leaves}
        positions = {leaf.key: points[leaf.key][0] for leaf in leaves}
        if self.momentum_correction:
            project_momentum(masses, accel)
        if self.angmom_correction:
            project_angular_momentum(masses, positions, accel)

        self.last_stats = stats
        return FmmResult(phi, accel, stats)

    def _p2p(
        self,
        points: Dict[NodeKey, Tuple[np.ndarray, np.ndarray]],
        phi: Dict[NodeKey, np.ndarray],
        accel: Dict[NodeKey, np.ndarray],
        ka: NodeKey,
        kb: NodeKey,
        n: int,
    ) -> None:
        """Direct cell-cell interaction between two leaves (or one with
        itself).  Pairwise antisymmetric by construction."""
        pos_a, m_a = points[ka]
        pos_b, m_b = points[kb]
        same = ka == kb
        thr = self.empty_mass_threshold
        if thr > 0.0:
            a_empty = float(m_a.sum()) <= thr
            b_empty = float(m_b.sum()) <= thr
            if a_empty and b_empty:
                return
            if b_empty:  # nothing sources onto a; only b feels a
                phi_b, acc_b, _, _ = pairwise_accumulate(
                    pos_b, m_b, pos_a, m_a, self_pair=False,
                    g_newton=self.g_newton, compute_b=False,
                )
                phi[kb] += phi_b.reshape(n, n, n)
                accel[kb] += acc_b.T.reshape(3, n, n, n)
                return
            if a_empty and not same:
                phi_a, acc_a, _, _ = pairwise_accumulate(
                    pos_a, m_a, pos_b, m_b, self_pair=False,
                    g_newton=self.g_newton, compute_b=False,
                )
                phi[ka] += phi_a.reshape(n, n, n)
                accel[ka] += acc_a.T.reshape(3, n, n, n)
                return
        phi_a, acc_a, phi_b, acc_b = pairwise_accumulate(
            pos_a,
            m_a,
            pos_b,
            m_b,
            self_pair=same,
            g_newton=self.g_newton,
            compute_b=not same,
        )
        phi[ka] += phi_a.reshape(n, n, n)
        accel[ka] += acc_a.T.reshape(3, n, n, n)
        if not same:
            phi[kb] += phi_b.reshape(n, n, n)
            accel[kb] += acc_b.T.reshape(3, n, n, n)

    # -- integrator hook ------------------------------------------------------
    def as_gravity_callback(self):
        """A :class:`~repro.hydro.integrator.GravityCallback` closure.

        A process-backend integrator given this callback solves through
        :meth:`solve` with its executor as the pool (the sharded near
        field); any other callback is called and its accel staged."""

        def callback(mesh: AmrMesh) -> Dict[NodeKey, np.ndarray]:
            return self.solve(mesh).accel

        #: The process executor recognises FMM callbacks by this attribute
        #: and runs their near field in its own worker rounds.
        callback.fmm_solver = self
        return callback
