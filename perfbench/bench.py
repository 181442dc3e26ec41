"""One run of one workload: set-up, a closed loop of checked steps, metrics.

A single process drives one ``OctoTigerSim``; each iteration (``regrid``
where the workload regrids, then ``OctoTigerSim.step``) starts after the
previous one returned.  Without tracing the run reports the end-to-end
metrics; with tracing it alternates traced and untraced iterations and
reports the per-layer metrics (see ``layers.json``).
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import signal
import statistics
import tempfile
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from checks import (
    DigestStore, drift_tolerance, load_envelope, state_digest, state_failures,
    total_mass,
)
from spans import END, NAME, START, TRACE, Tracer, layer_of
from workloads import NPROCS, STAR_MAX_LEVEL, WORKLOADS, Orbit, build_inputs, make_sim

#: A step that has not returned after this many seconds counts as a hang.
STEP_LIMIT_S = 60.0
#: At least this many timed iterations, so that a percentile with ten
#: samples beyond it exists.
MIN_STEPS = 11
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: The state after this many steps (set-up step included) is digested and
#: compared across runs; the traced run repeats these steps serially.
DIGEST_STEP = 4
#: The timed loop ends by this many seconds into the run whatever
#: ``--seconds`` asks, so a slowed-down program still exits in time.
DEADLINE_S = 140.0

E2E_UNITS = {
    "step_p50_s": "s",
    "step_tail_s": "s",
    "cells_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metric -> unit.  Values are means per traced warm iteration,
#: except ``setup.*`` and ``parallel.fork_s`` (per set-up) and the ratios.
LAYER_UNITS = {
    "driver.step_s": "s",
    "driver.unattributed_s": "s",
    "driver.unattributed_share": "ratio",
    "attribution.max_error_s": "s",
    "distsim.run_step_s": "s",
    "distsim.workload_s": "s",
    "distsim.share": "ratio",
    "hydro.step_self_s": "s",
    "hydro.timestep_s": "s",
    "hydro.ghost_s": "s",
    "hydro.reconstruct_s": "s",
    "hydro.riemann_s": "s",
    "hydro.update_s": "s",
    "hydro.cells": "cells/step",
    "gravity.solve_s": "s",
    "gravity.p2m_m2m_s": "s",
    "gravity.m2l_s": "s",
    "gravity.l2p_s": "s",
    "gravity.p2p_s": "s",
    "gravity.m2l_pairs": "count/step",
    "gravity.near_pairs": "count/step",
    "gravity.p2p_pairs": "count/step",
    "plan.hydro_s": "s",
    "plan.bundle_s": "s",
    "plan.fmm_s": "s",
    "plan.cold": "count/step",
    "plan.delta": "count/step",
    "plan.hit": "count/step",
    "plan.reuse_ratio": "ratio",
    "plancache.hits": "count/step",
    "plancache.misses": "count/step",
    "plancache.errors": "count/step",
    "regrid.s": "s",
    "regrid.calls": "count/step",
    "regrid.changed_ratio": "ratio",
    "regrid.leaves_changed": "count",
    "topology.revisited_share": "ratio",
    "parallel.rounds": "count/step",
    "parallel.round_s": "s",
    "parallel.exchange_wait_s": "s",
    "parallel.compute_s": "s",
    "parallel.fork_s": "s",
    "parallel.speedup_vs_serial": "x",
    "comms.remote_bytes": "B/step",
    "cores_online": "count",
    "setup.scenario_s": "s",
    "setup.first_step_s": "s",
    "trace.overhead_s": "s",
}

#: Per-layer metric -> the program counter whose per-step increase it is
#: (program-reported values).
REPORTED_TOTALS = {
    "hydro.ghost_s": "hydro.ghost",
    "hydro.reconstruct_s": "hydro.reconstruct",
    "hydro.riemann_s": "hydro.riemann",
    "hydro.update_s": "hydro.update",
    "gravity.p2m_m2m_s": "fmm.p2m_m2m",
    "gravity.m2l_s": "fmm.m2l",
    "gravity.l2p_s": "fmm.l2p",
    "gravity.p2p_s": "fmm.p2p",
    "gravity.m2l_pairs": "fmm.m2l_pairs",
    "gravity.near_pairs": "fmm.near_pairs",
    "gravity.p2p_pairs": "fmm.p2p_pairs",
}
#: Plan build kind -> the program's build-event counters of every plan layer.
PLAN_BUILDS = {
    kind: tuple(f"plan.{layer}.{event}_builds" for layer in ("hydro", "fmm", "bundle"))
    for kind, event in (("cold", "cold"), ("delta", "delta"), ("hit", "cache_hit"))
}
#: Span name -> per-layer metric that sums the spans' durations.
SPAN_TOTALS = {
    "distsim.run_step": "distsim.run_step_s",
    "distsim.workload": "distsim.workload_s",
    "hydro.timestep": "hydro.timestep_s",
    "gravity.solve": "gravity.solve_s",
    "plan.hydro": "plan.hydro_s",
    "plan.bundle": "plan.bundle_s",
    "plan.fmm": "plan.fmm_s",
    "parallel.round": "parallel.round_s",
    "regrid": "regrid.s",
}
#: The attribution check's tolerance on |sum of self times - step time|.
ATTRIBUTION_TOL_S = 1e-9


class StepTimeout(Exception):
    """A step ran past :data:`STEP_LIMIT_S`."""


@contextmanager
def step_limit(seconds: float):
    def expire(signum, frame):  # noqa: ANN001, ARG001
        raise StepTimeout(f"step still running after {seconds:.0f} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def tail(samples: List[float]) -> Tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the percentile of sorted index i of n samples is
    100 * i / (n - 1).  Needs at least eleven samples."""
    n = len(samples)
    rank = n - 11
    return sorted(samples)[rank], 100.0 * rank / (n - 1)


def cores_online() -> int:
    return len(os.sched_getaffinity(0))


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live worker processes."""
    total_kb = 0
    pids = [os.getpid()] + [p.pid for p in multiprocessing.active_children()]
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def stop_helpers(grace_s: float = 5.0) -> None:
    """Stop every process the run started and wait for each to end.

    The process backend's workers are stopped by ``OctoTigerSim.close``;
    any child still alive is terminated here.  Its shared-memory arenas
    start ``multiprocessing``'s resource tracker, which would otherwise
    outlive the run by a moment: the arenas still owned are unlinked first
    (so the tracker has nothing left to clean up), then its pipe is closed
    and it is reaped, killed if it has not ended within ``grace_s``."""
    from multiprocessing import resource_tracker

    from repro.amt.shm import cleanup_all

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    cleanup_all()
    tracker = resource_tracker._resource_tracker
    pid = getattr(tracker, "_pid", None)
    if pid is None or getattr(tracker, "_fd", None) is None:
        return
    os.close(tracker._fd)
    tracker._fd = None
    tracker._pid = None
    deadline = time.monotonic() + grace_s
    while os.waitpid(pid, os.WNOHANG) == (0, 0):
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            return
        time.sleep(0.01)


def reported_totals(sim) -> Dict[str, float]:  # noqa: ANN001 - OctoTigerSim
    """The program's own counters the per-layer table reads, as of now."""
    reg = sim.counters
    out = {metric: reg.total(name) for metric, name in REPORTED_TOTALS.items()}
    for kind, names in PLAN_BUILDS.items():
        out[f"plan.{kind}"] = float(sum(reg.count(n) for n in names))
    if sim.plan_cache is not None:
        stats = sim.plan_cache.stats
        out["plancache.hits"] = float(stats.hits)
        out["plancache.misses"] = float(stats.misses)
        out["plancache.errors"] = float(stats.errors)
    return out


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 workdir: Path, smoke: bool = False, setups: int = SETUPS) -> None:
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.smoke = smoke
        self.tracer = Tracer() if trace else None
        self.setups = 1 if trace else setups
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        #: Check name -> failures (per-step checks and whole-run checks).
        self.failures: Dict[str, int] = {}
        self.digests = DigestStore(workdir / "digests.json")
        self.envelope = load_envelope(workload, smoke)
        self.snapshot = None
        self.lines: List[str] = []

    # -- checks ------------------------------------------------------------------
    def fail(self, name: str) -> None:
        self.failures[name] = self.failures.get(name, 0) + 1

    def check_digest(self, sim, step: int) -> str:  # noqa: ANN001
        """Digest the state and compare it with earlier runs of this seed."""
        digest = state_digest(sim.mesh, sim.integrator.time)
        size = "smoke" if self.smoke else "full"
        key = f"{self.wl.name}:{self.seed}:{size}:step{step}"
        if not self.digests.check(key, digest):
            self.fail("digest")
        return digest

    def checked(self, sim, mass0: float, body: Callable[[], None]) -> Optional[float]:  # noqa: ANN001
        """Run one step under the hang limit and check the state after it.
        Returns the time the step returned, or None when it failed."""
        self.attempted += 1
        end = None
        try:
            with step_limit(STEP_LIMIT_S):
                body()
            end = time.perf_counter()
        except StepTimeout:
            failures = ["hang"]
        except Exception as exc:  # noqa: BLE001 - any step error fails the step
            failures = [f"exception:{type(exc).__name__}"]
        else:
            tol = drift_tolerance(self.envelope, sim.integrator.steps_taken)
            failures = state_failures(sim.mesh, sim.eos.rho_floor, mass0, tol)
        for name in failures:
            self.fail(name)
        if failures:
            self.failed += 1
            return None
        return end

    def span(self, name: str):  # noqa: ANN201
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    # -- set-up ------------------------------------------------------------------
    def setup(self, backend: Optional[str] = None):  # noqa: ANN201
        """Scenario build, driver construction and the first step.

        Returns (sim, initial mass, {scenario_s, first_step_s, setup_s}),
        sim None when the first step failed.  The mass integral and the
        output checks are not timed."""
        plan_cache = None
        if self.wl.regrids:
            from repro.core.plancache import PlanCache

            plan_cache = PlanCache(tempfile.mkdtemp(prefix="plans-", dir=self.workdir))
        t0 = time.perf_counter()
        with self.span("setup.scenario"):
            mesh, options = build_inputs(self.wl, self.seed, self.smoke)
        scenario_s = time.perf_counter() - t0
        mass0 = total_mass(mesh)
        t1 = time.perf_counter()
        sim = make_sim(self.wl, mesh, options, plan_cache, backend)
        with self.span("setup.first_step"):
            end = self.checked(sim, mass0, sim.step)
        if end is None:
            sim.close()
            sim = None
        first_step_s = (end or time.perf_counter()) - t1
        return sim, mass0, {
            "scenario_s": scenario_s,
            "first_step_s": first_step_s,
            "setup_s": scenario_s + first_step_s,
        }

    @staticmethod
    def close(sim) -> None:  # noqa: ANN001
        """Stop the driver's workers and remove its plan cache directory."""
        sim.close()
        if sim.plan_cache is not None:
            shutil.rmtree(sim.plan_cache.directory, ignore_errors=True)

    # -- the run -------------------------------------------------------------------
    def run(self) -> dict:
        """Set up, loop for the run's seconds, check and return the result."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        setups: List[dict] = []
        setup_digests = set()
        iterations: List[dict] = []
        extra: dict = {}
        sim = None
        try:
            for _ in range(self.setups):
                if sim is not None:
                    self.close(sim)
                    sim = None
                if self.tracer is not None:
                    self.tracer.trace_id = 0
                    self.tracer.install()
                try:
                    sim, mass0, times = self.setup()
                finally:
                    if self.tracer is not None:
                        self.tracer.uninstall()
                setups.append(times)
                if sim is None:
                    break
                setup_digests.add(self.check_digest(sim, 1))
            if len(setup_digests) > 1:
                self.fail("setup_digest")
            if sim is not None:
                iterations = self.loop(sim, mass0)
                extra["peak_rss_mb"] = peak_rss_mb()
                if (self.tracer is not None and self.wl.backend == "process"
                        and self.snapshot is not None):
                    self.close(sim)
                    sim = None
                    extra["serial_p50_s"] = self.serial_repeat()
        finally:
            if sim is not None:
                self.close(sim)
        if self.tracer is not None:
            self.tracer.write(
                self.workdir / f"spans-{self.wl.name}-{self.seed}.jsonl",
                {"workload": self.wl.name, "seed": self.seed},
            )
        return self.result(setups, iterations, extra)

    def loop(self, sim, mass0: float) -> List[dict]:  # noqa: ANN001
        """The closed loop of timed iterations."""
        orbit = Orbit(self.seed) if self.wl.regrids else None
        seen = {sim.mesh.fingerprint()}
        executor = sim.integrator.executor() if self.wl.backend == "process" else None
        iterations: List[dict] = []
        begin = time.perf_counter()
        while True:
            now = time.perf_counter()
            if now - self.started > DEADLINE_S or (
                now - begin >= self.seconds and len(iterations) >= MIN_STEPS
            ):
                break
            index = len(iterations) + 1
            traced = self.tracer is not None and index % 2 == 0
            before = reported_totals(sim) if traced else None
            regrids = []

            def body() -> None:
                if orbit is not None:
                    regrids.append(
                        sim.regrid(orbit.next_criterion(), max_level=STAR_MAX_LEVEL)
                    )
                sim.step()

            if traced:
                self.tracer.trace_id = index
                self.tracer.install()
            t0 = time.perf_counter()
            try:
                end = self.checked(sim, mass0, body)
            finally:
                if traced:
                    self.tracer.uninstall()
            if end is None:
                break
            fingerprint = sim.mesh.fingerprint()
            record = {
                "s": end - t0,
                "traced": traced,
                "trace_id": index,
                "cells": sim.mesh.n_cells(),
                "revisited": fingerprint in seen,
            }
            seen.add(fingerprint)
            if regrids:
                delta = regrids[0].delta
                record["regrid_changed"] = regrids[0].changed
                record["leaves_changed"] = len(delta.old_leaves ^ delta.new_leaves)
            if traced:
                after = reported_totals(sim)
                reported = {k: after[k] - before[k] for k in after}
                if executor is not None:
                    reported["parallel.exchange_wait_s"] = executor.exchange_wait_s
                    reported["parallel.compute_s"] = executor.compute_s
                    plan = executor.bundle_plan
                    # Computed, not measured: three ghost rounds per step.
                    reported["comms.remote_bytes"] = float(
                        3 * plan.remote_payload_bytes if plan is not None else 0
                    )
                record["reported"] = reported
            iterations.append(record)
            if index + 1 == DIGEST_STEP:
                self.check_digest(sim, DIGEST_STEP)
                if self.tracer is not None:
                    from repro.core.crosscheck import clone_mesh

                    self.snapshot = clone_mesh(sim.mesh)
        return iterations

    def serial_repeat(self) -> float:
        """Repeat the first :data:`DIGEST_STEP` steps on the serial ``des``
        backend with the same seed, require bit-identity with the process
        run's state, and return the serial warm-step median."""
        from repro.core.crosscheck import BackendMismatch, assert_identical

        self.tracer.trace_id = -1
        sim, mass0, _ = self.setup(backend="des")
        if sim is None:
            return 0.0
        times = []
        try:
            for _ in range(DIGEST_STEP - 1):
                t0 = time.perf_counter()
                end = self.checked(sim, mass0, sim.step)
                if end is None:
                    return 0.0
                times.append(end - t0)
            try:
                assert_identical(self.snapshot, sim.mesh, step=DIGEST_STEP)
            except BackendMismatch:
                self.fail("serial_identity")
        finally:
            self.close(sim)
        return statistics.median(times)

    # -- results -------------------------------------------------------------------
    def result(self, setups: List[dict], iterations: List[dict], extra: dict) -> dict:
        """The result object; also fills :attr:`lines` with the report."""
        enough = len(iterations) >= MIN_STEPS
        if not enough:
            self.fail("too_few_steps")
        wl = self.wl
        cores = cores_online()
        nprocs = NPROCS if wl.backend == "process" else 1
        revisited = (sum(r["revisited"] for r in iterations) / len(iterations)
                     if iterations else 0.0)
        self.lines.append(
            f"workload {wl.name} seed {self.seed} backend {wl.backend} "
            f"nprocs {nprocs} cores_online {cores}"
            + (" OVERSUBSCRIBED" if nprocs > cores else "")
        )
        self.lines.append(
            f"  iterations {len(iterations)}  set-ups {len(setups)}  "
            f"revisited topologies {revisited:.3f}"
        )
        untraced = [r["s"] for r in iterations if not r["traced"]]
        if self.tracer is None:
            metrics = self._e2e(setups, iterations, extra) if enough else {}
        else:
            metrics = self._layers(setups, iterations, extra, untraced, cores,
                                   revisited) if enough else {}
        correct = not self.failures and self.failed == 0
        error_rate = self.failed / max(self.attempted, 1)
        self.lines.append(
            f"  checks: {'all passed' if correct else 'FAILED ' + repr(self.failures)}"
            f"  error_rate {error_rate:.4f} ({self.failed}/{self.attempted} steps)"
        )
        units = LAYER_UNITS if self.tracer is not None else E2E_UNITS
        return {
            "correct": correct,
            "attempted": max(self.attempted, 1),
            "failed": self.failed,
            "metrics": {
                name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
                for name, unit in units.items()
            },
        }

    def _e2e(self, setups: List[dict], iterations: List[dict], extra: dict) -> dict:
        times = [r["s"] for r in iterations]
        tail_s, pct = tail(times)
        metrics = {
            "step_p50_s": statistics.median(times),
            "step_tail_s": tail_s,
            "cells_per_s": sum(r["cells"] for r in iterations) / sum(times),
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": extra["peak_rss_mb"],
        }
        self.lines.append(
            f"  step_tail_s is p{pct:.1f} of {len(times)} steps; setup_s is the "
            f"median of {len(setups)} set-ups"
        )
        for name, unit in E2E_UNITS.items():
            self.lines.append(f"  {name:<14} {metrics[name]:>14.6g} {unit}")
        return metrics

    def _layers(self, setups: List[dict], iterations: List[dict], extra: dict,
                untraced: List[float], cores: int, revisited: float) -> dict:
        tr = self.tracer
        traced = [r for r in iterations if r["traced"]]
        sums: Dict[str, float] = defaultdict(float)
        layer_self: Dict[str, float] = defaultdict(float)
        max_error = 0.0
        for rec in traced:
            tid = rec["trace_id"]
            selfs = tr.self_times(tid)
            for i in selfs:
                span = tr.spans[i]
                metric = SPAN_TOTALS.get(span[NAME])
                if metric is not None:
                    sums[metric] += span[END] - span[START]
                if span[NAME] == "parallel.round":
                    sums["parallel.rounds"] += 1
                elif span[NAME] == "hydro.step":
                    sums["hydro.step_self_s"] += selfs[i]
                elif span[NAME] == "regrid":
                    sums["regrid.calls"] += 1
                elif span[NAME].startswith("plan."):
                    sums["plan.calls"] += 1
            for root in tr.trees(tid):
                if tr.spans[root][NAME] != "driver.step":
                    continue
                step_s = tr.spans[root][END] - tr.spans[root][START]
                attributed = 0.0
                for i in tr.descendants(root):
                    layer_self[layer_of(tr.spans[i][NAME])] += selfs[i]
                    attributed += selfs[i]
                sums["driver.step_s"] += step_s
                max_error = max(max_error, abs(attributed - step_s))
            for key, value in rec.get("reported", {}).items():
                sums[key] += value
            sums["hydro.cells"] += rec["cells"]
            if "regrid_changed" in rec:
                sums["regrid.changed"] += rec["regrid_changed"]
                sums["regrid.leaves_changed"] += rec["leaves_changed"]
        if max_error > ATTRIBUTION_TOL_S:
            self.fail("attribution")
        n = max(len(traced), 1)
        metrics = {name: sums[name] / n for name in LAYER_UNITS if name in sums}
        step_total = sums["driver.step_s"] or 1.0
        calls = sums["regrid.calls"]
        traced_p50 = statistics.median(r["s"] for r in traced)
        untraced_p50 = statistics.median(untraced)
        serial_p50 = extra.get("serial_p50_s")
        fork_s = sum(s[END] - s[START] for s in tr.spans
                     if s[TRACE] == 0 and s[NAME] == "parallel.fork")
        metrics.update({
            "driver.unattributed_s": layer_self["driver"] / n,
            "driver.unattributed_share": layer_self["driver"] / step_total,
            "attribution.max_error_s": max_error,
            "distsim.share": layer_self["distsim"] / step_total,
            "plan.reuse_ratio": (
                (sums["plan.calls"] - sums["plan.cold"]) / sums["plan.calls"]
                if sums["plan.calls"] else 1.0
            ),
            "regrid.changed_ratio": sums["regrid.changed"] / calls if calls else 0.0,
            "regrid.leaves_changed": sums["regrid.leaves_changed"] / calls if calls else 0.0,
            "topology.revisited_share": revisited,
            "parallel.fork_s": fork_s,
            "parallel.speedup_vs_serial": (
                serial_p50 / untraced_p50 if serial_p50 else 1.0
            ),
            "cores_online": float(cores),
            "setup.scenario_s": setups[0]["scenario_s"],
            "setup.first_step_s": setups[0]["first_step_s"],
            "trace.overhead_s": traced_p50 - untraced_p50,
        })
        self.lines.append(
            f"  traced step_p50_s {traced_p50:.6g} s, untraced {untraced_p50:.6g} s "
            f"(tracing overhead {traced_p50 - untraced_p50:+.6g} s, "
            f"{len(traced)} traced / {len(untraced)} untraced iterations)"
        )
        self.lines.append(
            "  attribution: layer self times + driver.unattributed_s = "
            f"driver.step_s within {max_error:.3g} s; unattributed share "
            f"{metrics['driver.unattributed_share']:.4f}"
        )
        shares = ", ".join(
            f"{layer} {value / step_total:.3f}"
            for layer, value in sorted(layer_self.items(), key=lambda kv: -kv[1])
        )
        self.lines.append(f"  layer self-time shares of driver.step_s: {shares}")
        if serial_p50:
            self.lines.append(
                f"  serial des repeat of {DIGEST_STEP} steps bit-identical: "
                f"{'serial_identity' not in self.failures}; speedup_vs_serial "
                f"{metrics['parallel.speedup_vs_serial']:.3f} on {cores} cores"
            )
        for name, unit in LAYER_UNITS.items():
            self.lines.append(f"  {name:<28} {metrics.get(name, 0.0):>14.6g} {unit}")
        return metrics
