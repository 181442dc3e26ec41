"""Spans around the calls into each layer's public functions.

The program itself is not instrumented: :class:`Tracer` temporarily wraps
the listed methods and functions from here, records one span per call
(name, start, end, parent, trace id) in memory, and writes the spans out
when the run ends.  A layer's self time is its spans' durations minus
their children's.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional

#: (module, owner class or None for a module function, attribute, span).
#: ``workload_from_mesh`` is patched where the driver looks it up.
TARGETS = (
    ("repro.core.driver", "OctoTigerSim", "step", "driver.step"),
    ("repro.core.driver", "OctoTigerSim", "regrid", "regrid"),
    ("repro.core.driver", None, "workload_from_mesh", "distsim.workload"),
    ("repro.distsim.taskgraph", "TaskGraphSimulator", "run_step", "distsim.run_step"),
    ("repro.hydro.integrator", "HydroIntegrator", "step", "hydro.step"),
    ("repro.hydro.integrator", "HydroIntegrator", "timestep", "hydro.timestep"),
    ("repro.hydro.integrator", "HydroIntegrator", "plan_for", "plan.hydro"),
    ("repro.hydro.process_backend", "ProcessHydroExecutor", "ensure", "plan.bundle"),
    ("repro.gravity.fmm", "FmmSolver", "solve", "gravity.solve"),
    ("repro.gravity.fmm", "FmmSolver", "plan_for", "plan.fmm"),
    ("repro.amt.parallel", "ParallelEngine", "round", "parallel.round"),
    ("repro.amt.parallel", "ParallelEngine", "round_async", "parallel.round"),
    ("repro.amt.parallel", "ParallelEngine", "start", "parallel.fork"),
)

#: Span fields, in the order each record stores them.
TRACE, NAME, PARENT, START, END = range(5)


def layer_of(name: str) -> str:
    """The layer a span belongs to: its name up to the first dot."""
    return name.split(".", 1)[0]


class Tracer:
    """In-memory span recorder; :meth:`install` wraps the targets."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.trace_id = 0
        self._stack: List[int] = []
        self._originals: list = []

    # -- recording -------------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.trace_id, name, parent, time.perf_counter(), 0.0])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][NAME]} closed out of order")

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def _wrap(self, fn, name: str):  # noqa: ANN001, ANN202
        @functools.wraps(fn)
        def traced(*args, **kwargs):  # noqa: ANN002, ANN003, ANN202
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    # -- patching ----------------------------------------------------------------
    def install(self) -> None:
        if self._originals:
            return
        for module_name, owner_name, attr, span_name in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span_name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals = []

    # -- analysis ----------------------------------------------------------------
    def trees(self, trace_id: int) -> List[int]:
        """Root span indices of one trace."""
        return [i for i, s in enumerate(self.spans)
                if s[TRACE] == trace_id and s[PARENT] == -1]

    def self_times(self, trace_id: int) -> Dict[int, float]:
        """Span index -> duration minus its direct children's durations."""
        out: Dict[int, float] = {}
        for i, s in enumerate(self.spans):
            if s[TRACE] == trace_id:
                out[i] = out.get(i, 0.0) + s[END] - s[START]
                if s[PARENT] >= 0:
                    out[s[PARENT]] = out.get(s[PARENT], 0.0) - (s[END] - s[START])
        return out

    def descendants(self, root: int) -> List[int]:
        """``root`` and every span below it (spans are stored in open order,
        so descendants follow their ancestor)."""
        members = {root}
        for i in range(root + 1, len(self.spans)):
            if self.spans[i][PARENT] in members:
                members.add(i)
        return sorted(members)

    def shape(self, trace_id: int) -> List[tuple]:
        """The span tree of one trace as (depth, name) in open order."""
        depth: Dict[int, int] = {}
        out = []
        for i, s in enumerate(self.spans):
            if s[TRACE] != trace_id:
                continue
            depth[i] = depth.get(s[PARENT], -1) + 1 if s[PARENT] >= 0 else 0
            out.append((depth[i], s[NAME]))
        return out

    def write(self, path: Path, meta: Optional[dict] = None) -> None:
        """One JSON line per span, after an optional header line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            if meta is not None:
                fh.write(json.dumps(meta) + "\n")
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "trace": s[TRACE], "name": s[NAME],
                    "parent": s[PARENT], "start": s[START], "end": s[END],
                }) + "\n")
