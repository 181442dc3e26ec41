"""Measure the mass-drift envelope the output checks hold each step to.

The star and DWD workloads lose mass through the outflow boundaries, so
their relative mass drift grows with the step count; the blast wave does
not.  This script records, for the default seed, the drift after each of
the first N iterations of a workload, and stores it in
``drift_envelope.json`` next to it:

    python3 perfbench/drift_envelope.py star_regrid 300 [--smoke]

The check allows ``FACTOR`` times the recorded drift at the same step,
plus ``FLOOR`` for round-off (see :func:`checks.drift_tolerance`).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from checks import ENVELOPE_PATH, envelope_key, total_mass  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, STAR_MAX_LEVEL, WORKLOADS, Orbit, build_inputs, make_sim,
)


def measure(name: str, steps: int, smoke: bool) -> list:
    wl = WORKLOADS[name]
    mesh, options = build_inputs(wl, DEFAULT_SEED, smoke)
    mass0 = total_mass(mesh)
    sim = make_sim(wl, mesh, options)
    orbit = Orbit(DEFAULT_SEED)
    drift = []
    try:
        sim.step()  # the set-up step has no regrid
        drift.append(abs(total_mass(sim.mesh) - mass0) / mass0)
        while len(drift) < steps:
            if wl.regrids:
                sim.regrid(orbit.next_criterion(), max_level=STAR_MAX_LEVEL)
            sim.step()
            drift.append(abs(total_mass(sim.mesh) - mass0) / mass0)
    finally:
        sim.close()
    return drift


def main(argv) -> int:  # noqa: ANN001
    if len(argv) < 2 or argv[0] not in WORKLOADS:
        print(f"usage: drift_envelope.py {{{','.join(WORKLOADS)}}} STEPS [--smoke]",
              file=sys.stderr)
        return 2
    name, steps, smoke = argv[0], int(argv[1]), "--smoke" in argv[2:]
    key = envelope_key(name, smoke)
    table = json.loads(ENVELOPE_PATH.read_text()) if ENVELOPE_PATH.exists() else {}
    table[key] = [float(f"{d:.3e}") for d in measure(name, steps, smoke)]
    rows = ",\n".join(f"{json.dumps(k)}: {json.dumps(table[k])}" for k in sorted(table))
    ENVELOPE_PATH.write_text("{\n" + rows + "\n}\n")
    print(f"{key}: {steps} steps, final drift {table[key][-1]:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
