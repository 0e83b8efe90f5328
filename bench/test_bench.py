"""Self-tests of the benchmark harness.

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402
from pcmopt.geometry import Case, UnitCellSpec  # noqa: E402
from pcmopt.network import NetworkModel  # noqa: E402
from hostclock import HostClock  # noqa: E402
from tracing import Tracer, layer_metrics, simulate_builds  # noqa: E402

ORACLE = json.loads((BENCH / "oracle.json").read_text())


def test_latent_capacity_break_fails_reference_oracle(monkeypatch):
    latent = NetworkModel.latent_capacity
    monkeypatch.setattr(NetworkModel, "latent_capacity",
                        property(lambda net: latent.fget(net) * 1e-6))
    ref = workloads.Reference(0, ORACLE)
    ref.order = ["solder174"]
    failures = ref.run_round(HostClock(), check=True).failures
    assert any(f.startswith("solder174: T_o_max") for f in failures)


def test_tracer_counts_one_simulation_and_restores_originals():
    original = NetworkModel.conductance_matrix
    with Tracer() as tracer:
        history = workloads.solver.simulate(Case(cell=UnitCellSpec(dx=10e-6)),
                                            dt=0.025)
    assert NetworkModel.conductance_matrix is original
    m = layer_metrics(tracer.spans)
    assert m["solver.simulate.calls"] == 1
    assert m["solver.steps"] == history.t.size
    assert simulate_builds(tracer.spans) == [m["network.matrix_build.calls"]]
    assert 0 < m["solver.simulate.self_s"] < m["solver.simulate.s"]


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "reference",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_clock_scales_each_piece_by_the_ticks_around_it():
    from hostclock import CAL_NOMINAL_S
    clock = HostClock()
    nominal, slow = CAL_NOMINAL_S, 2 * CAL_NOMINAL_S
    clock.starts, clock.ends = [0.0, 1.0, 2.0], [0.1, 1.1, 2.1]
    clock.times = [nominal, slow, nominal]
    # two 0.9 s pieces, each between a nominal and a slow tick
    assert abs(clock.calibrated(0.1, 2.0) - 2 * 0.9 / 1.5) < 1e-12
    assert abs(clock.raw(0.1, 2.0) - 1.8) < 1e-12
    # a piece after the last tick is scaled by that tick alone
    assert abs(clock.calibrated(2.1, 2.5) - 0.4) < 1e-12
