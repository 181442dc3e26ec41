"""The benchmark's workloads: seeded inputs for one ``OctoTigerSim`` each.

Every workload is built from the program's own scenario builders; the seed
only adds a small multiplicative perturbation of the initial density
(applied after the builder) and, for ``star_regrid``, the starting phase
of the regrid orbit.  The program receives nothing but the resulting mesh
and driver options.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.octree.fields import Field
from repro.octree.mesh import AmrMesh

#: Relative amplitude of the seeded density perturbation.  The factor is
#: ``1 + DENSITY_EPS * u`` with ``u`` uniform in [0, 1): it never lowers a
#: density, so no cell starts below the EOS floor.
DENSITY_EPS = 1e-3

#: The seed ``layers.json`` and the drift envelope were recorded with.
DEFAULT_SEED = 1

#: Worker processes for the process-backend workloads.
NPROCS = 2

#: ``star_regrid``: the refinement sphere's orbit.  An odd number of
#: positions per lap lets a run that alternates traced and untraced
#: iterations visit every position with both.
ORBIT_POSITIONS = 9
ORBIT_RADIUS = 0.55
SPHERE_RADIUS = 0.3
STAR_BASE_LEVEL = 1
STAR_MAX_LEVEL = 2


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str
    build: Callable[[bool], Tuple[AmrMesh, Dict[str, Any]]]
    regrids: bool = False


def _dwd(smoke: bool):
    from repro.scenarios import dwd_scenario

    sc = dwd_scenario(level=1 if smoke else 2, scf_grid=24 if smoke else 48)
    return sc.mesh, {"eos": sc.eos, "omega": sc.omega, "gravity": True}


def _blast(smoke: bool):
    from repro.scenarios import sedov_blast

    sc = sedov_blast(levels=1 if smoke else 3)
    return sc.mesh, {"eos": sc.eos, "gravity": False}


def _star(smoke: bool):
    from repro.scenarios import rotating_star

    sc = rotating_star(level=STAR_BASE_LEVEL, scf_grid=24 if smoke else 48)
    return sc.mesh, {"eos": sc.eos, "omega": sc.omega, "gravity": True}


#: Why each workload was chosen is recorded in ``BENCHMARK.json`` and
#: ``layers.json``.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("dwd_gravity", backend="process", build=_dwd),
        Workload("blast_hydro", backend="process", build=_blast),
        Workload("star_regrid", backend="des", build=_star, regrids=True),
    )
}


def perturb_density(mesh: AmrMesh, seed: int) -> None:
    """Scale each leaf's density (and the species densities with it) by a
    seeded factor in [1, 1 + DENSITY_EPS), then restrict to the parents."""
    rng = np.random.default_rng([seed, 0])
    n = mesh.n
    for key in sorted(mesh.leaf_keys()):
        leaf = mesh.nodes[key]
        factor = 1.0 + DENSITY_EPS * rng.random((n, n, n))
        for fld in (Field.RHO, Field.FRAC1, Field.FRAC2):
            leaf.subgrid.interior_view(fld)[...] *= factor
    mesh.restrict_all()


def build_inputs(workload: Workload, seed: int, smoke: bool = False):
    """The seeded mesh and driver options of one workload."""
    mesh, options = workload.build(smoke)
    perturb_density(mesh, seed)
    return mesh, options


class OrbitCriterion:
    """Refine every leaf a sphere touches; let leaves above the base level
    that it does not touch coarsen back."""

    def __init__(self, center: np.ndarray, radius: float, base_level: int) -> None:
        self.center = center
        self.radius = radius
        self.base_level = base_level

    def _touches(self, leaf) -> bool:  # noqa: ANN001 - OctreeNode
        lo = leaf.origin
        hi = lo + leaf.dx * leaf.subgrid.n
        gap = np.clip(self.center, lo, hi) - self.center
        return float(gap @ gap) < self.radius * self.radius

    def wants_refinement(self, leaf) -> bool:  # noqa: ANN001
        return self._touches(leaf)

    def allows_coarsening(self, leaf) -> bool:  # noqa: ANN001
        return leaf.level > self.base_level and not self._touches(leaf)


class Orbit:
    """The ``star_regrid`` regrid schedule: the sphere advances one of
    :data:`ORBIT_POSITIONS` fixed angles per regrid, so later laps revisit
    earlier topologies.  The seed picks the starting position; every seed
    visits the same positions, so seeds differ in order, not in cost."""

    def __init__(self, seed: int) -> None:
        self.calls = int(np.random.default_rng([seed, 1]).integers(ORBIT_POSITIONS))

    def next_criterion(self) -> OrbitCriterion:
        angle = 2.0 * math.pi * self.calls / ORBIT_POSITIONS
        self.calls += 1
        center = np.array(
            [ORBIT_RADIUS * math.cos(angle), ORBIT_RADIUS * math.sin(angle), 0.0]
        )
        return OrbitCriterion(center, SPHERE_RADIUS, STAR_BASE_LEVEL)


def make_sim(workload: Workload, mesh: AmrMesh, options: Dict[str, Any],
             plan_cache: Optional[Any] = None, backend: Optional[str] = None):
    """One driver for ``mesh``; ``backend`` overrides the workload's."""
    from repro.core import OctoTigerSim

    return OctoTigerSim(
        mesh,
        backend=backend or workload.backend,
        nprocs=NPROCS,
        plan_cache=plan_cache,
        **options,
    )
