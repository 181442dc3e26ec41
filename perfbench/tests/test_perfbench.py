"""Smoke-size tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

from bench import E2E_UNITS, LAYER_UNITS, Run, stop_helpers  # noqa: E402
from checks import state_failures, total_mass  # noqa: E402
from workloads import WORKLOADS, build_inputs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True, scope="module")
def _stop_helpers():
    """The in-process runs below start helper processes too."""
    yield
    stop_helpers()


def run_cli(workload: str, trace: int, workdir: Path, seed: int = 3):  # noqa: ANN201
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
         "--smoke", "--workdir", str(workdir)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_spec_lists_every_metric_and_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == LAYER_UNITS


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(workload, trace, tmp_path):
    report, result = run_cli(workload, trace, tmp_path)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    text = "\n".join(report)
    for metric in spec:
        assert metric["name"] in text
    if trace:
        assert "attribution:" in text and "tracing overhead" in text
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_state_checks_fail_on_corrupted_field():
    wl = WORKLOADS["blast_hydro"]
    mesh, options = build_inputs(wl, seed=5, smoke=True)
    floor = options["eos"].rho_floor
    mass0 = total_mass(mesh)
    assert state_failures(mesh, floor, mass0, 1e-12) == []
    leaf = mesh.leaves()[0]
    rho = leaf.subgrid.interior_view()[0]
    rho[0, 0, 0] = float("nan")
    assert state_failures(mesh, floor, mass0, 1e-12) == ["finite", "mass_drift"]
    rho[0, 0, 0] = -1.0
    assert state_failures(mesh, floor, mass0, 1e-12) == ["density_floor", "mass_drift"]


def test_run_reports_corrupted_final_field(tmp_path, monkeypatch):
    from repro.core.driver import OctoTigerSim

    step = OctoTigerSim.step

    def corrupting_step(self, dt=None):  # noqa: ANN001, ANN202
        record = step(self, dt)
        if self.integrator.steps_taken == 6:
            self.mesh.leaves()[0].subgrid.data[0, 3, 3, 3] = float("inf")
        return record

    monkeypatch.setattr(OctoTigerSim, "step", corrupting_step)
    run = Run("blast_hydro", 3, 0.2, False, tmp_path, smoke=True, setups=1)
    result = run.run()
    assert not result["correct"]
    assert result["failed"] == 1
    assert "finite" in run.failures
    assert any("finite" in line for line in run.lines)


@pytest.mark.parametrize("workload", ["star_regrid", "blast_hydro"])
def test_traced_runs_repeat_span_tree_shape(workload, tmp_path):
    runs = []
    for attempt in range(2):
        run = Run(workload, 4, 0.2, True, tmp_path / str(attempt), smoke=True)
        assert run.run()["correct"]
        runs.append(run)
    ids = sorted({s[0] for s in runs[0].tracer.spans} & {s[0] for s in runs[1].tracer.spans})
    assert len(ids) >= 6  # set-up, serial repeat where it runs, and traced steps
    for tid in ids:
        assert runs[0].tracer.shape(tid) == runs[1].tracer.shape(tid), tid


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "blast_hydro",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def process_group_members(pgid: int):  # noqa: ANN201
    """PIDs of the live processes in process group ``pgid``."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # After the command: state, ppid, pgrp; zombies are ended.
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(stat.parent.name))
    return members


@pytest.mark.parametrize("trace", [0, 1])
def test_run_leaves_no_process_behind(trace, tmp_path):
    # The process backend's workers and the shared-memory resource tracker
    # are all in the run's process group; none may outlive it.
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "dwd_gravity",
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--smoke",
         "--workdir", str(tmp_path)],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    assert proc.wait(timeout=170) == 0
    assert process_group_members(proc.pid) == []
