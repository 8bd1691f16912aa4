"""Benchmark of the isoprod library on seeded, closed-loop workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload report_ladder --seed 1 --seconds 32 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 32

One caller in one thread runs passes over the workload's inputs.  The
number of passes follows from the workload's estimated pass time and
``--seconds`` alone (see :func:`planned_passes`), so one seed measures the
same inputs on every host; elapsed time only stops a run that overruns
``--seconds`` by far.  Every operation is checked against frozen outputs
(``bench/frozen.json``) and a failed check is counted, not fatal.  With
``--trace 0`` the run reports the end-to-end metrics of ``BENCHMARK.json``:
the pass time (see :func:`pass_time`), the set-up time (median over fresh
processes that import isoprod and build the inputs) and the peak resident
memory.  Both times are reference times: wall time corrected for the
host's speed, which a probe samples while the measured code runs (see
``hostspeed``).  With ``--trace 1`` untraced and traced passes alternate,
timed in plain wall time; the traced ones give the per-layer metrics, and
the spans are written to ``.bench_out/``.  ``--workload all`` runs every
workload that ``BENCHMARK.json`` lists, each in its own process, and
prints one table.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when the run completed, also when checks failed; it is 1 when the library
cannot be imported from ``src/`` of the checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from hostspeed import SpeedProbe, reference_time, trimmed_mean
from tracing import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 15
SETUP_PROBE_BURST = 8   # speed probes before and after each set-up
MIN_PASSES = 3          # untraced passes, whatever ``--seconds`` says
MIN_TRACED_PASSES = 2   # alternating untraced and traced passes
OVERRUN_FACTOR = 2.0    # no pass starts after this many times ``--seconds``


def import_library() -> None:
    """Import isoprod from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import isoprod
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import isoprod from {src}: {exc}") from exc
    if src.resolve() not in Path(isoprod.__file__).resolve().parents:
        raise SystemExit(f"bench: isoprod was imported from {isoprod.__file__}, not {src}")


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def planned_passes(workload: wl.Workload, seconds: float, trace: bool) -> int:
    """Passes of a run: as many as fill ``seconds`` at the workload's
    estimated pass time, and at least the minimum.  The count depends on
    the arguments only, never on how fast the host or the library is."""
    minimum = MIN_TRACED_PASSES if trace else MIN_PASSES
    return max(minimum, round(seconds / workload.pass_estimate_s))


def prepare(workload: wl.Workload, seed: int, passes: int) -> list[list[wl.Op]]:
    """Set-up: the inputs of every pass of the run."""
    base = wl.base_documents(workload)
    return [wl.pass_inputs(workload, base, seed, i) for i in range(passes)]


def measure_setup(args: list[str]) -> float:
    """Median reference time (see ``hostspeed``) from process start to
    inputs ready, over fresh processes.  Each process samples its own
    speed and reports it with its ``ready`` line."""
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(Path(__file__).resolve()), *args,
                               "--setup-only"],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            proc.wait(timeout=120)
        word, *numbers = line.split() or [""]
        if word != "ready" or len(numbers) != 2 or proc.returncode != 0:
            raise SystemExit(f"bench: set-up process failed with code {proc.returncode}")
        probe_s, speed = map(float, numbers)
        times.append(reference_time(t1 - t0, probe_s, [speed]))
    return statistics.median(times)


def setup_only(workload: wl.Workload, seed: int, seconds: float) -> None:
    """The set-up of a run, under a speed probe; prints ``ready``, the
    seconds spent in probes and the trimmed mean probe speed.  The set-up is
    short, so a burst of probes before and after it adds samples."""
    with SpeedProbe() as probe:
        for _ in range(SETUP_PROBE_BURST):
            probe.sample()
        import_library()
        prepare(workload, seed, planned_passes(workload, seconds, False))
        for _ in range(SETUP_PROBE_BURST):
            probe.sample()
    probe_s, speeds = probe.window(0.0, time.perf_counter())
    print(f"ready {probe_s!r} {trimmed_mean(speeds)!r}", flush=True)


def run_pass(workload: wl.Workload, ops: list[wl.Op], frozen: dict,
             probe: SpeedProbe | None = None) -> tuple[list[float], int]:
    """Run the operations in order; returns (seconds of each operation,
    failed count).  Checks run outside the timed regions.  With a running
    ``probe`` the seconds are reference times (see ``hostspeed``); an
    operation too short to hold a probe gets the speed of the whole pass."""
    windows = []
    failed = 0
    for op in ops:
        t0 = time.perf_counter()
        try:
            output = wl.run_op(workload, op)
        except Exception as exc:  # counted in failed_share; the run goes on
            windows.append((t0, time.perf_counter()))
            failed += 1
            print(f"bench: {op.label} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        windows.append((t0, time.perf_counter()))
        problem = wl.check(workload, op, output, frozen)
        if problem:
            failed += 1
            print(f"bench: frozen-output mismatch: {problem}", file=sys.stderr)
    if probe is None:
        return [t1 - t0 for t0, t1 in windows], failed
    probed = [probe.window(t0, t1) for t0, t1 in windows]
    pass_speeds = [v for _, speeds in probed for v in speeds] or [1.0]
    return [reference_time(t1 - t0, probe_s, speeds or pass_speeds)
            for (t0, t1), (probe_s, speeds) in zip(windows, probed)], failed


def pass_time(passes: list[list[float]]) -> float:
    """Time of one pass: the sum over the pass's operations of each one's
    median over the passes.  Operation j of every pass is the same input
    under another relabelling, so this is the median pass with the
    relabelling noise and what contention the speed probe leaves of each
    input damped separately."""
    return sum(statistics.median(col) for col in zip(*passes))


def run_workload(workload: wl.Workload, inputs: list[list[wl.Op]], frozen: dict,
                 seconds: float, trace: bool) -> dict:
    """Closed loop of one pass per entry of ``inputs``.  Returns pass times,
    counts and, when traced, the tracer."""
    times: dict[bool, list[list[float]]] = {False: [], True: []}
    attempted = failed = 0
    tracer = Tracer() if trace else None
    min_passes = MIN_TRACED_PASSES if trace else MIN_PASSES
    begin = time.perf_counter()
    for i, ops in enumerate(inputs):
        traced = trace and i % 2 == 1
        if i >= min_passes and time.perf_counter() - begin > OVERRUN_FACTOR * seconds:
            print(f"bench: stopped after {i} of {len(inputs)} passes, "
                  f"past {OVERRUN_FACTOR:g} x {seconds:g} s", file=sys.stderr)
            break
        if traced:
            with tracer:
                tracer.begin_pass(i)
                op_times, bad = run_pass(workload, ops, frozen)
                tracer.end_pass()
        elif trace:
            op_times, bad = run_pass(workload, ops, frozen)
        else:
            with SpeedProbe() as probe:
                op_times, bad = run_pass(workload, ops, frozen, probe)
        times[traced].append(op_times)
        attempted += len(ops)
        failed += bad
    return {"untraced": times[False], "traced": times[True], "attempted": attempted,
            "failed": failed, "tracer": tracer}


def per_layer_metrics(result: dict, names: list[str]) -> dict[str, float]:
    tracer = result["tracer"]
    per_pass = tracer.pass_metrics()
    traced = [per_pass.get(i, {}) for i in tracer.passes]
    values = layer_metrics(traced, [n for n in names if n != "trace.overhead_share"])
    plain = pass_time(result["untraced"])
    values["trace.overhead_share"] = (pass_time(result["traced"]) - plain) / plain
    return values


def bench_one(name: str, seed: int, seconds: float, trace: bool,
              fast: bool = False) -> dict:
    """One workload run; returns the result object printed as the last line."""
    workload = (wl.FAST_WORKLOADS if fast else wl.WORKLOADS)[name]
    specs = benchmark_spec()
    frozen = wl.load_frozen()
    inputs = prepare(workload, seed, planned_passes(workload, seconds, trace))
    setup_s = None
    if not trace:
        child = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                 *(["--fast"] if fast else [])]
        setup_s = measure_setup(child)
    result = run_workload(workload, inputs, frozen, seconds, trace)
    if trace:
        values = per_layer_metrics(result, [m["name"] for m in specs["per_layer"]])
        result["tracer"].write_spans(ROOT / ".bench_out" / f"spans-{name}-seed{seed}.csv.gz")
        units = {m["name"]: m["unit"] for m in specs["per_layer"]}
    else:
        values = {
            "pass_s": pass_time(result["untraced"]),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {m["name"]: m["unit"] for m in specs["end_to_end"]}
    passes = len(result["untraced"]) + len(result["traced"])
    print(f"workload {name}  seed {seed}  passes {passes} "
          f"({len(result['traced'])} traced)  operations {result['attempted']}")
    print("  untraced pass totals (s): "
          + " ".join(f"{sum(p):.3f}" for p in result["untraced"]))
    for key in units:
        print(f"  {key:48s} {values[key]:.6g} {units[key]}")
    print(f"  {'failed_share':48s} {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {key: {"value": values[key], "unit": units[key]} for key in units},
    }


def bench_all(seed: int, seconds: float, trace: bool, fast: bool = False) -> dict:
    """Every workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in [w["name"] for w in benchmark_spec()["workloads"]]:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
             *(["--fast"] if fast else [])],
            stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"bench: workload {name} exited with code {proc.returncode}")
        one = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and one["correct"]
        combined["attempted"] += one["attempted"]
        combined["failed"] += one["failed"]
        for key, value in one["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    return combined


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fast", action="store_true",
                        help="tiny inputs that run every check in seconds")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        workload = (wl.FAST_WORKLOADS if args.fast else wl.WORKLOADS)[args.workload]
        setup_only(workload, args.seed, args.seconds)
        return
    import_library()
    if args.workload == "all":
        result = bench_all(args.seed, args.seconds, bool(args.trace), args.fast)
    else:
        result = bench_one(args.workload, args.seed, args.seconds, bool(args.trace),
                           fast=args.fast)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
