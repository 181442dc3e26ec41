"""Output checks run after every step the benchmark takes.

A failed check is reported by name and counts the step as failed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import List

import numpy as np

from repro.octree.fields import Field
from repro.octree.mesh import AmrMesh

#: Relative mass drift per step of each workload on the default seed,
#: written by ``drift_envelope.py``.
ENVELOPE_PATH = Path(__file__).resolve().parent / "drift_envelope.json"
#: A step may drift by FACTOR times the recorded drift at the same step
#: (other seeds start the star's orbit elsewhere and drift up to about 40%
#: more) plus FLOOR, round-off of the mass integral.  Steps past the
#: recorded ones are held to the last recorded value.
FACTOR = 3.0
FLOOR = 1e-12


def drift_tolerance(envelope: List[float], step: int) -> float:
    """The relative mass drift allowed after driver step ``step`` (1-based)."""
    if not envelope:
        return FLOOR
    return FACTOR * envelope[min(step, len(envelope)) - 1] + FLOOR


def envelope_key(workload: str, smoke: bool) -> str:
    return f"{workload}:smoke" if smoke else workload


def load_envelope(workload: str, smoke: bool) -> List[float]:
    return json.loads(ENVELOPE_PATH.read_text()).get(envelope_key(workload, smoke), [])


def total_mass(mesh: AmrMesh) -> float:
    """Volume-weighted density over the leaves."""
    mass = 0.0
    for leaf in mesh.leaves():
        mass += float(leaf.subgrid.interior_view(Field.RHO).sum()) * leaf.cell_volume
    return mass


def state_failures(mesh: AmrMesh, rho_floor: float, mass0: float,
                   drift_tol: float) -> List[str]:
    """Names of the checks the current state fails: ``finite`` (every
    field of every leaf, ghosts included), ``density_floor`` (interior
    density at or above the EOS floor) and ``mass_drift`` (relative to the
    initial mass, within ``drift_tol``)."""
    failures = []
    leaves = mesh.leaves()
    if not all(np.isfinite(leaf.subgrid.data).all() for leaf in leaves):
        failures.append("finite")
    if any(leaf.subgrid.interior_view(Field.RHO).min() < rho_floor for leaf in leaves):
        failures.append("density_floor")
    drift = abs(total_mass(mesh) - mass0) / abs(mass0)
    if not drift <= drift_tol:  # NaN fails too
        failures.append("mass_drift")
    return failures


def state_digest(mesh: AmrMesh, time: float) -> str:
    """sha256 over the simulation time and every leaf's key and field data
    (ghosts included), in sorted key order."""
    h = hashlib.sha256(np.float64(time).tobytes())
    for key in sorted(mesh.leaf_keys()):
        h.update(repr(key).encode())
        h.update(np.ascontiguousarray(mesh.nodes[key].subgrid.data).tobytes())
    return h.hexdigest()


class DigestStore:
    """Digests of earlier runs in this checkout, keyed by workload, seed,
    size and step: the first run of a key records it, later runs must
    match it."""

    def __init__(self, path: Path) -> None:
        self.path = path

    def check(self, key: str, digest: str) -> bool:
        """Record ``digest`` for a new key; False when an earlier run
        recorded another digest for it."""
        known = json.loads(self.path.read_text()) if self.path.exists() else {}
        if key in known:
            return known[key] == digest
        known[key] = digest
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        tmp.replace(self.path)
        return True
