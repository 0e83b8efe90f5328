"""Run one pcmopt benchmark workload and print its metrics.

    python3 bench/run.py --workload reference --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``. The run sets up (imports, input load and hash check, one warm-up
solve), then repeats rounds of the workload until ``--seconds`` have been
spent, checking the answers. With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced rounds and
reports the per-layer metrics and the tracing overhead. Times are in
calibrated seconds (see hostclock.py). The last line of standard output is
one JSON object; a full record, raw times included, goes to bench/results/.
The exit code is 0 only when every answer is correct.

    python3 bench/run.py --record-oracle

re-records bench/oracle.json from the current code.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
ORACLE = BENCH / "oracle.json"

# One BLAS thread and a library worker count of at most nproc, set before
# numpy is imported; the workloads run every evaluation in this process.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
NPROC = os.cpu_count() or 1
os.environ["PCMOPT_WORKERS"] = str(NPROC)

SETUP_SAMPLES = 3  # this process plus two fresh interpreters
SETUP_TICK_REPS = 5  # kernel runs that calibrate one set-up


def load_package():
    """Import pcmopt from this checkout's src/, never from elsewhere."""
    if not (SRC / "pcmopt" / "__init__.py").is_file():
        sys.exit(f"error: no pcmopt package under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import pcmopt
    if Path(pcmopt.__file__).resolve().parent != (SRC / "pcmopt").resolve():
        sys.exit(f"error: imported pcmopt from {pcmopt.__file__}")


def setup(name: str, seed: int):
    """Imports, input load and hash check, one warm-up solve. Returns the
    workload, the host clock and the set-up time since the interpreter
    reached this script, as (calibrated, raw) seconds. The clock is made
    after the set-up is timed and calibrates it with the ticks that follow
    it."""
    load_package()
    import workloads
    w = workloads.WORKLOADS[name](seed, json.loads(ORACLE.read_text()))
    workloads.warm_up()
    raw = time.perf_counter() - T_START
    from hostclock import CAL_NOMINAL_S, HostClock
    clock = HostClock()
    clock.tick(SETUP_TICK_REPS)
    return w, clock, (raw * CAL_NOMINAL_S / clock.times[-1], raw)


def setup_samples(name: str, seed: int, first: tuple) -> list[tuple]:
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(tuple(json.loads(proc.stdout.splitlines()[-1])))
    return samples


def stamp(args) -> dict:
    import numpy
    import scipy
    from pcmopt.studies import default_workers
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "nproc": NPROC,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": int(BLAS_THREADS),
            "library_workers": default_workers(), "git_commit": commit,
            "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def run_rounds(w, clock, seconds: float, trace: bool):
    """Rounds until the budget is spent: a round is not started when, taking
    as long as the last, it would end more than half a round past the
    budget. In a traced run every second round is traced and at least one
    of each kind runs. Returns the untraced
    rounds, the traced rounds with their spans, the failures found across
    rounds (each round keeps its own) and the tracer."""
    from tracing import Tracer, simulate_builds
    tracer = Tracer() if trace else None
    plain, traced, failures = [], [], []
    first_answers = None
    t0 = time.perf_counter()
    i = 0
    while True:
        traced_round = trace and i % 2 == 1
        if traced_round:
            tracer.round = i
            tracer.install()
        t_round = time.perf_counter()
        try:
            r = w.run_round(clock, check=i == 0)
        except Exception as exc:  # noqa: BLE001 - report the failed round
            failures.append(f"round {i} raised {type(exc).__name__}: {exc}")
            break
        finally:
            if traced_round:
                tracer.uninstall()
        if traced_round:
            spans = tracer.round_spans(i)
            if hasattr(w, "check_builds"):
                failures += w.check_builds(simulate_builds(spans))
            traced.append((r, spans))
        else:
            plain.append(r)
        if first_answers is None:
            first_answers = r.answers
        elif r.answers != first_answers:
            failures.append(f"round {i} answers differ from round 0")
        if r.failures or failures:
            break
        i += 1
        elapsed = time.perf_counter() - t0
        if trace and not traced:
            continue
        if elapsed + 0.5 * (time.perf_counter() - t_round) > seconds:
            break
    return plain, traced, failures, tracer


def layer_report(plain, traced, failures, clock) -> dict[str, float]:
    from tracing import layer_metrics
    from workloads import RESIDUAL_BOUND
    per_round = []
    for r, spans in traced:
        m = layer_metrics(spans, clock.calibrated)
        m.update(r.counts)
        m.setdefault("optimize.evaluations", 0)
        m.setdefault("optimize.generations", 0)
        per_round.append(m)
    counts = [k for k in per_round[0] if k.endswith(".calls") or k in (
        "solver.steps", "solver.cycles", "optimize.evaluations",
        "optimize.generations")]
    for m in per_round[1:]:
        if any(m[k] != per_round[0][k] for k in counts):
            failures.append("per-layer counts differ between traced rounds")
    out = {k: statistics.fmean(m[k] for m in per_round) for k in per_round[0]}
    for k in counts:
        out[k] = per_round[0][k]
    if not out["solver.energy_residual.max"] < RESIDUAL_BOUND:
        failures.append("global energy residual "
                        f"{out['solver.energy_residual.max']:.3e}")
    out["trace.overhead_s"] = (statistics.median(r.wall for r, _ in traced)
                               - statistics.median(r.wall for r in plain))
    out["trace.spans"] = len(traced[0][1])
    out["host.calibration_s"] = clock.median_tick()
    return out


def record_oracle() -> None:
    """Write the current code's answers for every workload to oracle.json."""
    load_package()
    import workloads
    from hostclock import HostClock
    from tracing import Tracer, simulate_builds
    clock = HostClock()
    ref = workloads.Reference(0, {})
    with Tracer() as tracer:
        r = ref.run_round(clock, check=False)
    builds = simulate_builds(tracer.spans)
    reference = {}
    for a, n in zip(r.answers["transients"], builds):
        entry = {k: v for k, v in a.items() if k not in (
            "case", "energy_residual")}
        entry["matrix_builds"] = n
        reference[a["case"]] = entry
    coarse = workloads.CoarseGA(0, {}).run_round(clock, check=False)
    sur = workloads.Surrogate(0, {}).run_round(clock, check=False)
    oracle = {"reference": reference,
              "coarse_ga": coarse.answers["ga_run"],
              "surrogate": {"r_squared": {"0": sur.answers["r_squared"]},
                            "ga_runs": sur.answers["ga_runs"]}}
    ORACLE.write_text(json.dumps(oracle, indent=1) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload",
                    choices=("reference", "coarse_ga", "surrogate"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--record-oracle", action="store_true")
    args = ap.parse_args()
    if args.record_oracle:
        record_oracle()
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    w, clock, first_setup = setup(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps(first_setup))
        return 0
    setup_s = setup_samples(args.workload, args.seed, first_setup)

    plain, traced, run_failures, tracer = run_rounds(w, clock, args.seconds,
                                                     bool(args.trace))
    rounds = plain + [r for r, _ in traced]
    metrics, named = {}, {}
    if plain and not run_failures and not any(r.failures for r in rounds):
        e2e, by_name = w.metrics(plain)
        e2e["setup_s"] = statistics.median(c for c, _ in setup_s)
        e2e["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        named = {"setup_s": e2e["setup_s"], "wall_s": e2e["wall_s"],
                 **by_name, "peak_rss_mb": e2e["peak_rss_mb"]}
        metrics = (layer_report(plain, traced, run_failures, clock)
                   if args.trace else e2e)
    attempted = max(sum(r.attempted for r in rounds), 1)
    failed = min(sum(r.failed for r in rounds) + len(run_failures), attempted)
    named["fail_frac"] = failed / attempted
    failures = [f for r in rounds for f in r.failures] + run_failures
    correct = not failures

    RESULTS.mkdir(exist_ok=True)
    base = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    header = stamp(args)
    record = {"stamp": header, "correct": correct,
              "attempted": attempted, "failed": failed,
              "failures": failures,
              "rounds": [{"wall_s": r.wall, "raw_wall_s": r.raw_wall,
                          "samples_s": r.samples} for r in plain],
              "setup_samples_s": [c for c, _ in setup_s],
              "raw_setup_samples_s": [raw for _, raw in setup_s],
              "calibration_s": clock.times, "metrics": metrics,
              "named_metrics": named,
              "answers": rounds[0].answers if rounds else None}
    base.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.write(base.with_name(base.name + "-spans.jsonl"),
                     run_id=base.name, header=header)

    for f in failures:
        print(f"WRONG: {f}")
    for name, value in {**named, **(metrics if args.trace else {})}.items():
        print(f"{name} = {value:.6g} {_unit(name)}".rstrip())
    if plain:
        from hostclock import CAL_NOMINAL_S
        print(f"host: calibration kernel median {clock.median_tick():.4g} s "
              f"(nominal {CAL_NOMINAL_S:g} s); raw wall_s "
              f"{statistics.median(r.raw_wall for r in plain):.6g} s, raw "
              f"setup_s {statistics.median(raw for _, raw in setup_s):.6g} s")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": _unit(k)}
                    for k, v in metrics.items()}}))
    return 0 if correct else 1


def _unit(name: str) -> str:
    if name.endswith((".calls", ".steps", ".cycles", ".evaluations",
                      ".generations", ".spans")):
        return "count"
    if name.endswith("us_per_step"):
        return "us/step"
    if name.endswith(("rebuild_ratio", "residual.max")):
        return "ratio"
    if name.endswith("_per_s"):
        return "1/s"
    return {"peak_rss_mb": "MB", "fail_frac": ""}.get(name, "s")


if __name__ == "__main__":
    sys.exit(main())
