"""Static plan verification: prove the parallel plans race-free pre-launch.

The SIMD-merging companion work leans on one enabling invariant — per-task
index sets are disjoint — and the process backend inherits it everywhere:
ranks write only their own slot runs, ghost scatters write only their own
ghost bands, every ghost cell has exactly one donor, FMM shards own
disjoint target slices.  All of those sets exist as concrete index arrays
inside the plans (:class:`~repro.comms.bundle.GhostBundlePlan` scatter
arrays, executor slot runs, :meth:`~repro.gravity.plan.FmmPlan.split` CSR
slices), so instead of *trusting* the planners we can check the invariant
in closed form before a single worker forks:

* :func:`verify_partition` — rank slot runs are in-bounds, pairwise
  disjoint, cover every slot, and agree with the leaf localities;
* :func:`verify_bundle_plan` — scatter targets are globally unique and
  exactly cover every face ghost band (each target has exactly one
  donor), writes land only in ghost bands of leaves owned by the
  applying rank, reads come only from donor interiors of the declared
  source rank;
* :func:`verify_fmm_split` — sharded M2L batches preserve the unsplit
  target/source order, keep CSR bounds consistent, and own pairwise
  disjoint target sets (``np.intersect1d`` on every shard pair);
* :func:`verify_fmm_shards` — the near-field shards of the process
  backend's gravity round: every near segment and every P2P edge
  belongs to exactly one rank, in plan order, and each rank writes only
  the accel/phi slots it owns;
* :func:`verify_process_plan` — the executor-level bundle of the above.

Checks are pure ``numpy`` set algebra over the live index arrays (the
ones the workers will actually use — an injected overlap *is* the checked
array), cost one plan-build's worth of work, run once per topology, and
return :class:`PlanViolation` records; callers in raise mode get a
:class:`PlanVerificationError` naming every violated invariant.

``ProcessHydroExecutor`` and ``FmmSolver`` run these on every plan
(re)build and refuse unverified plans unless constructed with
``verify_plans=False`` (CLI: ``--no-verify-plans``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

import numpy as np

from repro.octree.fields import NFIELDS
from repro.octree.mesh import AmrMesh

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.comms.bundle import GhostBundlePlan
    from repro.gravity.plan import FmmPlan, FmmShard


@dataclass(frozen=True)
class PlanViolation:
    """One violated plan invariant."""

    check: str  # stable identifier, e.g. "bundle-dst-overlap"
    detail: str

    def __str__(self) -> str:
        return f"{self.check}: {self.detail}"


class PlanVerificationError(RuntimeError):
    """A plan failed static verification; carries every violation."""

    def __init__(self, violations: Sequence[PlanViolation]) -> None:
        self.violations = tuple(violations)
        lines = "\n".join(f"  - {v}" for v in self.violations)
        super().__init__(
            f"plan failed static verification "
            f"({len(self.violations)} violation(s)):\n{lines}"
        )


def _classify(
    idx: np.ndarray, n: int, ghost: int, nfields: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Leaf slot and interior-mask of flat field-arena element indices."""
    m = n + 2 * ghost
    cells = m**3
    chunk = nfields * cells
    slot = idx // chunk
    cell = idx % cells
    i = cell // (m * m)
    j = (cell // m) % m
    k = cell % m
    interior = (
        (i >= ghost) & (i < ghost + n)
        & (j >= ghost) & (j < ghost + n)
        & (k >= ghost) & (k < ghost + n)
    )
    return slot, interior


def verify_partition(
    runs: Sequence[Sequence[Tuple[int, int, float]]],
    n_slots: int,
    localities: Sequence[int],
) -> List[PlanViolation]:
    """Per-rank slot runs partition ``[0, n_slots)`` and match localities.

    ``runs[rank]`` holds ``(lo, hi, dx)`` ranges; every slot must appear
    in exactly one rank's runs (the per-rank interior/flux/accel write
    sets are these ranges, so disjoint cover == race-free writes), and
    each covered slot's leaf locality must equal the covering rank.
    """
    out: List[PlanViolation] = []
    owner = np.full(n_slots, -1, dtype=np.int64)
    for rank, rank_runs in enumerate(runs):
        for lo, hi, _dx in rank_runs:
            if not (0 <= lo < hi <= n_slots):
                out.append(PlanViolation(
                    "partition-bounds",
                    f"rank {rank} run [{lo}, {hi}) outside [0, {n_slots})",
                ))
                continue
            taken = owner[lo:hi]
            clash = np.nonzero(taken >= 0)[0]
            if clash.size:
                s = lo + int(clash[0])
                out.append(PlanViolation(
                    "partition-overlap",
                    f"slot {s} claimed by both rank {int(taken[clash[0]])} "
                    f"and rank {rank}",
                ))
            owner[lo:hi] = rank
    holes = np.nonzero(owner < 0)[0]
    if holes.size:
        out.append(PlanViolation(
            "partition-hole",
            f"{holes.size} slot(s) owned by no rank (first: {int(holes[0])})",
        ))
    loc = np.asarray(localities, dtype=np.int64)
    if loc.size == n_slots:
        covered = owner >= 0
        wrong = np.nonzero(covered & (owner != loc))[0]
        if wrong.size:
            s = int(wrong[0])
            out.append(PlanViolation(
                "partition-locality",
                f"slot {s} is leaf locality {int(loc[s])} but assigned to "
                f"rank {int(owner[s])}",
            ))
    return out


def _expected_ghost_targets(
    mesh: AmrMesh, nfields: int
) -> np.ndarray:
    """Every face ghost-band element index of every leaf, sorted.

    The reference exchange fills exactly the six face bands
    (:meth:`~repro.octree.subgrid.SubGrid.ghost_slices`) of every leaf —
    this is the "covered by exactly one donor" target set the bundle
    scatter arrays must equal.
    """
    n, g = mesh.n, mesh.ghost
    m = n + 2 * g
    chunk = nfields * m**3
    cube = np.arange(chunk, dtype=np.intp).reshape(nfields, m, m, m)
    leaves = sorted(mesh.leaves(), key=lambda nd: nd.key)
    bands = [
        cube[(slice(None),) + leaves[0].subgrid.ghost_slices(axis, side)].ravel()
        for axis in range(3)
        for side in (0, 1)
    ]
    per_leaf = np.sort(np.concatenate(bands))
    slots = np.arange(len(leaves), dtype=np.intp) * chunk
    return (slots[:, None] + per_leaf[None, :]).ravel()


def verify_bundle_plan(
    mesh: AmrMesh, plan: "GhostBundlePlan", nfields: int = NFIELDS
) -> List[PlanViolation]:
    """Ghost-exchange scatter/gather index arrays are race-free.

    Checked in closed form over the live arrays:

    * every scatter target (``copy_dst``/``fine_dst``) is written by
      exactly one donor — globally unique *and* exactly equal to the set
      of face ghost-band cells the reference exchange fills;
    * writes land only in ghost regions of leaves whose locality is the
      bundle's ``dst_locality`` (the rank that applies it);
    * reads (``copy_src``/``fine_src``) come only from interiors, owned
      by the bundle's ``src_locality``;
    * all indices are in-bounds for the arena.
    """
    out: List[PlanViolation] = []
    n, g = mesh.n, mesh.ghost
    m = n + 2 * g
    leaves = sorted(mesh.leaves(), key=lambda nd: nd.key)
    n_slots = len(leaves)
    total = n_slots * nfields * m**3
    loc = np.array([leaf.locality for leaf in leaves], dtype=np.int64)

    all_dst: List[np.ndarray] = []
    for pair in sorted(plan.bundles):
        b = plan.bundles[pair]
        dst = np.concatenate([b.copy_dst, b.fine_dst]) if b.fine_dst.size \
            else b.copy_dst
        src = np.concatenate([b.copy_src, b.fine_src.ravel()]) \
            if b.fine_dst.size else b.copy_src
        for name, idx in (("dst", dst), ("src", src)):
            if idx.size and (idx.min() < 0 or idx.max() >= total):
                out.append(PlanViolation(
                    "bundle-bounds",
                    f"bundle {pair} {name} index outside [0, {total})",
                ))
        dst = dst[(dst >= 0) & (dst < total)]
        src = src[(src >= 0) & (src < total)]
        if dst.size:
            slot, interior = _classify(dst, n, g, nfields)
            if interior.any():
                out.append(PlanViolation(
                    "bundle-dst-interior",
                    f"bundle {pair} scatters {int(interior.sum())} "
                    f"element(s) into leaf interiors (ghost bands only)",
                ))
            wrong = np.unique(slot[loc[slot] != b.dst_locality])
            if wrong.size:
                out.append(PlanViolation(
                    "bundle-dst-ownership",
                    f"bundle {pair} writes slot(s) {wrong.tolist()[:4]} "
                    f"owned by rank(s) "
                    f"{np.unique(loc[wrong]).tolist()[:4]}, "
                    f"not dst rank {b.dst_locality}",
                ))
        if src.size:
            slot, interior = _classify(src, n, g, nfields)
            if not interior.all():
                out.append(PlanViolation(
                    "bundle-src-ghost",
                    f"bundle {pair} reads {int((~interior).sum())} "
                    f"element(s) outside donor interiors",
                ))
            wrong = np.unique(slot[loc[slot] != b.src_locality])
            if wrong.size:
                out.append(PlanViolation(
                    "bundle-src-ownership",
                    f"bundle {pair} reads slot(s) {wrong.tolist()[:4]} not "
                    f"owned by src rank {b.src_locality}",
                ))
        if b.fine_dst.size and b.fine_src.shape != (8, b.fine_dst.size):
            out.append(PlanViolation(
                "bundle-fine-shape",
                f"bundle {pair} fine_src {b.fine_src.shape} does not match "
                f"fine_dst ({b.fine_dst.size},)",
            ))
        all_dst.append(dst)

    targets = np.sort(np.concatenate(all_dst)) if all_dst else \
        np.empty(0, dtype=np.intp)
    dup_mask = targets[1:] == targets[:-1]
    if dup_mask.any():
        dup = int(targets[1:][dup_mask][0])
        slot, _ = _classify(np.array([dup]), n, g, nfields)
        out.append(PlanViolation(
            "bundle-dst-overlap",
            f"{int(dup_mask.sum())} scatter target(s) written by more than "
            f"one donor (first: element {dup} in slot {int(slot[0])})",
        ))
    expected = _expected_ghost_targets(mesh, nfields)
    if targets.size != expected.size or not np.array_equal(
        np.unique(targets), expected
    ):
        missing = np.setdiff1d(expected, targets).size
        extra = np.setdiff1d(targets, expected).size
        out.append(PlanViolation(
            "bundle-dst-coverage",
            f"scatter targets != face ghost bands: {missing} band cell(s) "
            f"with no donor, {extra} target(s) outside any band",
        ))
    return out


def verify_fmm_split(plan: "FmmPlan", max_rows: int) -> List[PlanViolation]:
    """``FmmPlan.split`` shards are a disjoint, order-preserving cover.

    Bit-identical accumulation needs each target in exactly one shard
    with its complete source segment in original order.  Checked against
    the unsplit levels: concatenated shard targets/sources reproduce the
    level arrays exactly, shard CSR bounds are consistent, and every
    shard pair has an empty ``np.intersect1d`` of targets.
    """
    out: List[PlanViolation] = []
    shards = plan.split(max_rows)
    for s, fl in enumerate(shards):
        if fl.indptr.size != fl.tgt_idx.size + 1:
            out.append(PlanViolation(
                "fmm-shard-csr",
                f"shard {s}: indptr has {fl.indptr.size} entries for "
                f"{fl.tgt_idx.size} target(s)",
            ))
            continue
        if fl.indptr[0] != 0 or fl.indptr[-1] != fl.src_idx.size:
            out.append(PlanViolation(
                "fmm-shard-csr",
                f"shard {s}: indptr spans [{int(fl.indptr[0])}, "
                f"{int(fl.indptr[-1])}) for {fl.src_idx.size} source row(s)",
            ))
        if np.any(np.diff(fl.indptr) < 0):
            out.append(PlanViolation(
                "fmm-shard-csr", f"shard {s}: indptr not monotone"
            ))
    for a in range(len(shards)):
        for b in range(a + 1, len(shards)):
            shared = np.intersect1d(shards[a].tgt_idx, shards[b].tgt_idx)
            if shared.size:
                out.append(PlanViolation(
                    "fmm-shard-overlap",
                    f"shards {a} and {b} both accumulate into target(s) "
                    f"{shared.tolist()[:4]}",
                ))
    split_tgt = np.concatenate([fl.tgt_idx for fl in shards]) if shards \
        else np.empty(0, dtype=np.intp)
    split_src = np.concatenate([fl.src_idx for fl in shards]) if shards \
        else np.empty(0, dtype=np.intp)
    full_tgt = np.concatenate([fl.tgt_idx for fl in plan.far_levels]) \
        if plan.far_levels else np.empty(0, dtype=np.intp)
    full_src = np.concatenate([fl.src_idx for fl in plan.far_levels]) \
        if plan.far_levels else np.empty(0, dtype=np.intp)
    if not np.array_equal(split_tgt, full_tgt):
        out.append(PlanViolation(
            "fmm-shard-targets",
            f"shard targets ({split_tgt.size}) do not reproduce the "
            f"unsplit target order ({full_tgt.size})",
        ))
    if not np.array_equal(split_src, full_src):
        out.append(PlanViolation(
            "fmm-shard-sources",
            f"shard source segments ({split_src.size} row(s)) do not "
            f"reproduce the unsplit source order ({full_src.size})",
        ))
    return out


def verify_fmm_shards(
    plan: "FmmPlan", shards: Sequence["FmmShard"], owner: np.ndarray
) -> List[PlanViolation]:
    """Near-field shards are an exact, owner-respecting cut of ``plan``.

    Checked over the live shard arrays (what the workers will index):

    * **writes** — each rank's targets are leaves it owns
      (``owner[slot] == rank``), and across ranks every leaf slot is a
      target exactly once: each accel/phi slot has one writer;
    * **near segments** — every near target of the plan belongs to
      exactly one rank, which owns it, and carries its complete per-octant
      source segments and expansion-centre rows in plan order;
    * **P2P edges** — every directed edge of every plan class belongs to
      exactly one rank, which owns its target; within a rank the edges
      keep plan order and their target/source/scale arrays match the plan;
    * **blocks** — each rank's cache blocks tile its near targets in order.
    """
    out: List[PlanViolation] = []
    owner = np.asarray(owner)
    n_leaves = len(plan.leaf_keys)
    written = np.zeros(n_leaves, dtype=np.int64)
    near_seen = np.zeros(plan.near_tgt_slots.size, dtype=np.int64)
    edge_seen = [np.zeros(c.tgt.size, dtype=np.int64) for c in plan.p2p_classes]
    seg_counts = np.diff(plan.near_indptr)
    for shard in shards:
        r = shard.rank
        tg = np.asarray(shard.targets)
        if tg.size and (tg.min() < 0 or tg.max() >= n_leaves):
            out.append(PlanViolation(
                "fmm-shard-bounds",
                f"rank {r} targets outside [0, {n_leaves})",
            ))
            continue
        foreign = np.unique(tg[owner[tg] != r])
        if foreign.size:
            out.append(PlanViolation(
                "fmm-shard-ownership",
                f"rank {r} writes accel/phi of slot(s) "
                f"{foreign.tolist()[:4]} owned by rank(s) "
                f"{np.unique(owner[foreign]).tolist()[:4]}",
            ))
        np.add.at(written, tg, 1)

        # Near segments: complete and in plan order for each target.
        idx = np.asarray(shard.near_idx)
        np.add.at(near_seen, idx, 1)
        if not np.array_equal(tg[shard.near_local], plan.near_tgt_slots[idx]):
            out.append(PlanViolation(
                "fmm-shard-near",
                f"rank {r} near targets do not match their plan slots",
            ))
        oct_sel = (8 * idx[:, None] + np.arange(8)).ravel()
        rows = [
            plan.near_rows[plan.near_indptr[8 * j]:plan.near_indptr[8 * j + 8]]
            for j in idx
        ]
        expect_rows = np.concatenate(rows) if rows else np.empty(0, np.intp)
        expect_ptr = np.concatenate([[0], np.cumsum(seg_counts[oct_sel])])
        if not (
            np.array_equal(shard.near_rows, expect_rows)
            and np.array_equal(shard.near_indptr, expect_ptr)
            and np.array_equal(
                shard.near_center_rows, plan.near_center_rows[oct_sel]
            )
            and np.array_equal(shard.near_tgt_rows, plan.near_tgt_rows[idx])
        ):
            out.append(PlanViolation(
                "fmm-shard-near",
                f"rank {r} near segments differ from the plan's segments "
                f"of its targets",
            ))
        stops = [b for _, b in shard.blocks]
        starts = [a for a, _ in shard.blocks]
        if idx.size and (
            starts[:1] != [0] or stops[-1:] != [idx.size]
            or starts[1:] != stops[:-1] or any(b <= a for a, b in shard.blocks)
        ):
            out.append(PlanViolation(
                "fmm-shard-blocks",
                f"rank {r} cache blocks do not tile its {idx.size} near "
                f"target(s)",
            ))

        # P2P edges: owner-targeted, plan-ordered, consistent.
        for ci, edges, cls in zip(shard.p2p_class, shard.p2p_edges, shard.p2p):
            full = plan.p2p_classes[ci]
            edges = np.asarray(edges)
            np.add.at(edge_seen[ci], edges, 1)
            if edges.size > 1 and np.any(np.diff(edges) <= 0):
                out.append(PlanViolation(
                    "fmm-shard-p2p-order",
                    f"rank {r} class {full.key} edges out of plan order",
                ))
            wrong = np.unique(full.tgt[edges][owner[full.tgt[edges]] != r])
            if wrong.size:
                out.append(PlanViolation(
                    "fmm-shard-p2p-owner",
                    f"rank {r} class {full.key} edges target foreign "
                    f"slot(s) {wrong.tolist()[:4]}",
                ))
            if not (
                np.array_equal(tg[cls.tgt], full.tgt[edges])
                and np.array_equal(shard.src_slots[cls.src], full.src[edges])
                and np.array_equal(cls.inv_dx, full.inv_dx[edges])
            ):
                out.append(PlanViolation(
                    "fmm-shard-p2p",
                    f"rank {r} class {full.key} edge arrays differ from the "
                    f"plan's",
                ))

    bad = np.flatnonzero(written != 1)
    if bad.size:
        out.append(PlanViolation(
            "fmm-shard-overlap",
            f"{bad.size} leaf slot(s) written by {sorted(set(written[bad].tolist()))} "
            f"ranks instead of one (first: {int(bad[0])})",
        ))
    bad = np.flatnonzero(near_seen != 1)
    if bad.size:
        out.append(PlanViolation(
            "fmm-shard-near-cover",
            f"{bad.size} near target(s) not in exactly one shard "
            f"(first: slot {int(plan.near_tgt_slots[bad[0]])})",
        ))
    for ci, seen in enumerate(edge_seen):
        bad = np.flatnonzero(seen != 1)
        if bad.size:
            out.append(PlanViolation(
                "fmm-shard-p2p-cover",
                f"class {plan.p2p_classes[ci].key}: {bad.size} edge(s) not "
                f"in exactly one shard",
            ))
    return out


def verify_region_split(split, n: int, ghost: int) -> List[PlanViolation]:  # noqa: ANN001
    """The interior/halo split is an exact, overlap-safe partition.

    The overlap schedule computes ``interior_box`` *before* the ghost
    exchange has drained, so its safety rests on four closed-form facts,
    each checked against the live box arrays
    (:class:`~repro.hydro.plan.RegionSplit`):

    * **cover** — interior ∪ halo boxes hit every cell of ``[0, n)^3``;
    * **disjoint** — no cell is in two boxes (each cell's dudt is written
      by exactly one region pass);
    * **width** — on every face of the cube the halo band is exactly
      ``split.width`` cells deep, and ``width`` equals the kernel stencil
      radius (a thinner band would let an interior stencil reach a ghost;
      a wider one silently shrinks the overlap win);
    * **closure** — every interior-box cell's stencil, ``width`` cells
      each way per axis, stays inside ``[0, n)`` (never reads a ghost),
      and the ghost margin is at least the stencil radius so halo
      sub-views are well formed.
    """
    from repro.hydro.plan import STENCIL_RADIUS

    out: List[PlanViolation] = []
    boxes = list(split.boxes)
    count = np.zeros((n, n, n), dtype=np.int64)
    for box in boxes:
        x0, x1, y0, y1, z0, z1 = box
        if not (0 <= x0 <= x1 <= n and 0 <= y0 <= y1 <= n and 0 <= z0 <= z1 <= n):
            out.append(PlanViolation(
                "split-bounds", f"box {box} outside [0, {n})^3"
            ))
            continue
        count[x0:x1, y0:y1, z0:z1] += 1
    over = np.nonzero(count > 1)
    if over[0].size:
        c = tuple(int(a[0]) for a in over)
        out.append(PlanViolation(
            "split-disjoint",
            f"{over[0].size} cell(s) covered by more than one region "
            f"(first: {c})",
        ))
    holes = np.nonzero(count == 0)
    if holes[0].size:
        c = tuple(int(a[0]) for a in holes)
        out.append(PlanViolation(
            "split-cover",
            f"{holes[0].size} cell(s) in no region (first: {c})",
        ))
    if split.width != STENCIL_RADIUS:
        out.append(PlanViolation(
            "split-width",
            f"halo width {split.width} != stencil radius {STENCIL_RADIUS}",
        ))
    if ghost < STENCIL_RADIUS:
        out.append(PlanViolation(
            "split-closure",
            f"ghost margin {ghost} below stencil radius {STENCIL_RADIUS}",
        ))
    if split.has_interior:
        x0, x1, y0, y1, z0, z1 = split.interior_box
        w = split.width
        for name, lo, hi in (("x", x0, x1), ("y", y0, y1), ("z", z0, z1)):
            if lo - w < 0 or hi + w > n:
                out.append(PlanViolation(
                    "split-closure",
                    f"interior box {split.interior_box} stencil leaves "
                    f"[0, {n}) along {name}",
                ))
            if lo != w or hi != n - w:
                out.append(PlanViolation(
                    "split-width",
                    f"halo band along {name} is [{0}, {lo}) / [{hi}, {n}), "
                    f"not {w} cells deep",
                ))
    elif n > 2 * split.width:
        out.append(PlanViolation(
            "split-width",
            f"empty interior box for n={n}, width={split.width} "
            f"(interior [{split.width}, {n - split.width}) expected)",
        ))
    return out


def verify_process_plan(executor) -> List[PlanViolation]:  # noqa: ANN001
    """Executor-level pass: partition + ghost bundles + interior/halo
    split of a built
    :class:`~repro.hydro.process_backend.ProcessHydroExecutor` plan."""
    mesh = executor.mesh
    leaves = sorted(mesh.leaves(), key=lambda nd: nd.key)
    out = verify_partition(
        executor.runs, len(leaves), [leaf.locality for leaf in leaves]
    )
    out.extend(verify_bundle_plan(mesh, executor.bundle_plan))
    split = getattr(executor, "split", None)
    if split is not None:
        out.extend(verify_region_split(split, mesh.n, mesh.ghost))
    return out


def verify_mesh_plans(mesh: AmrMesh, nprocs: int) -> List[PlanViolation]:
    """Scenario-level pass without forking anything: partition a mesh,
    rebuild the executor's slot runs and ghost bundle plan, verify both.

    Used by the ``repro verify-plans`` CLI gate — deterministically
    reconstructs the exact plan :class:`ProcessHydroExecutor` would build
    (same SFC partition, same sorted-key arena layout, same maximal
    contiguous same-level run decomposition) and checks it statically.
    """
    from repro.comms.bundle import build_bundle_plan
    from repro.octree.partition import sfc_partition

    sfc_partition(mesh, nprocs)
    leaves = sorted(mesh.leaves(), key=lambda nd: nd.key)
    m = mesh.n + 2 * mesh.ghost
    chunk = NFIELDS * m**3
    offsets: Dict = {leaf.key: i * chunk for i, leaf in enumerate(leaves)}
    plan = build_bundle_plan(mesh, offsets)
    runs: List[List[Tuple[int, int, float]]] = [[] for _ in range(nprocs)]
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
        runs[rank].append((start, stop, leaves[start].dx))
        start = stop
    out = verify_partition(
        runs, len(leaves), [leaf.locality for leaf in leaves]
    )
    out.extend(verify_bundle_plan(mesh, plan))
    return out


def require_verified(violations: Sequence[PlanViolation]) -> None:
    """Raise :class:`PlanVerificationError` when any violation exists."""
    if violations:
        raise PlanVerificationError(violations)
