"""Benchmark runner for quivar.

    python3 perfbench/run.py --workload oracle_fp --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout; the library is imported from ``src/``
next to this directory. With ``--trace 0`` the run measures the
end-to-end metrics of one workload; with ``--trace 1`` it makes one
traced run and reports the per-layer metrics. ``--workload all`` runs
each workload in its own process and prints every end-to-end metric. The
metric names and units come from ``BENCHMARK.json``. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

import calibration

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 7
SETUP_LOOPS = 24  # calibration loops before and after each set-up probe
MIN_OPS = 100  # so that 10 latency samples lie beyond op_p90_ms
# a traced run replays this share of --seconds worth of rounds untraced,
# then the same rounds traced; seconds per round are measured on a 2-core
# x86-64 VM and only fix the round count, which must not depend on speed
TRACE_SHARE = 0.2
ROUND_SECONDS = {"oracle_fp": 2.0, "exact_char0": 1.75, "flags_fq": 0.75}
CLI_TIMEOUT_S = 120


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _pin_to_one_cpu():
    """Keep this process and its children on one CPU, so that the
    calibration loop runs on the core that runs the measured work."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _require_sources():
    if not os.path.isfile(os.path.join(SRC, "quivar", "__init__.py")):
        sys.exit(f"perfbench: no quivar sources under {SRC}")


def _load_library():
    sys.path.insert(0, SRC)
    import quivar.cli  # noqa: F401  every layer, as a `qv` user loads it
    import workloads
    return workloads


def _benchmark(key):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)[key]


def _workload_names():
    return [w["name"] for w in _benchmark("workloads")]


def _quantile(values, q):
    return statistics.quantiles(values, n=100)[q - 1]


def _result(correct, attempted, failed, values, kind):
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in _benchmark(kind)}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _run_op(op):
    """Time one op; returns (seconds, result, error)."""
    result = error = None
    t0 = time.perf_counter()
    try:
        result = op.call()
    except Exception as err:  # judged as a failure or a known refusal
        error = err
    return time.perf_counter() - t0, result, error


def _report_failure(op, result, error):
    what = f"{type(error).__name__}: {error}" if error else f"wrong answer {result!r}"
    print(f"perfbench: {op.kind} op failed: {what[:300]}", file=sys.stderr)


# -- set-up time ----------------------------------------------------------

def probe(workload, seed):
    """Body of one set-up probe: import, build round 0, signal readiness."""
    wl = _load_library()
    wl.build_round(workload, seed, 0)
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def setup_seconds(workload, seed):
    """Median wall time from launching a fresh process to its first op,
    each probe scaled by the calibration loops timed around it."""
    samples = []
    loops = [calibration.loop_seconds(SETUP_LOOPS)]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, os.path.abspath(__file__),
                               "--probe", "--workload", workload,
                               "--seed", str(seed)],
                              cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if line.strip() != b"ready" or proc.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed for {workload}")
        loops.append(calibration.loop_seconds(SETUP_LOOPS))
        samples.append(elapsed * _scale(loops[-2] + loops[-1], 2 * SETUP_LOOPS))
    return statistics.median(samples)


def _scale(loop_s, loops):
    """Factor from this host's current speed to the reference speed."""
    return calibration.REFERENCE_S * loops / loop_s


# -- untraced run ---------------------------------------------------------

def timed_run(workload, seed, seconds):
    setup_s = setup_seconds(workload, seed)
    wl = _load_library()
    latencies, scales, outcomes = [], [], Counter()
    raw_s = 0.0
    loop_s = calibration.loop_seconds()
    deadline = time.perf_counter() + seconds
    r = 0
    # whole rounds only, so every run has exactly the workload's op mix
    while len(latencies) < MIN_OPS or time.perf_counter() < deadline:
        for op in wl.build_round(workload, seed, r):
            dt, result, error = _run_op(op)
            # the host's speed during the op, from the loops around it
            before, loop_s = loop_s, calibration.loop_seconds()
            scales.append(_scale(before + loop_s, 2))
            latencies.append(dt * scales[-1])
            raw_s += dt
            outcome = wl.judge(op, result, error)
            outcomes[outcome] += 1
            if outcome == wl.FAILED:
                _report_failure(op, result, error)
        r += 1
    attempted = len(latencies)
    values = {
        "setup_s": setup_s,
        "ops_per_s": outcomes[wl.OK] / sum(latencies),
        "op_p50_ms": _quantile(latencies, 50) * 1000,
        "op_p90_ms": _quantile(latencies, 90) * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    failed = outcomes[wl.FAILED]
    print(f"workload {workload} seed {seed}: {attempted} ops in {r} rounds, "
          f"{raw_s:.3f} s timed, {sum(latencies):.3f} s at reference speed "
          f"(scale factors {min(scales):.3f}-{max(scales):.3f}, "
          f"median {statistics.median(scales):.3f})")
    for m in _benchmark("end_to_end"):
        print(f"  {m['name']:<14} {values[m['name']]:.6g} {m['unit']}")
    print(f"  {'fail_ratio':<14} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted})")
    print(f"  {'refusal_ratio':<14} {outcomes[wl.REFUSED] / attempted:.6g} ratio "
          f"({outcomes[wl.REFUSED]} of {attempted} known root-search refusals)")
    return _result(failed == 0, attempted, failed, values, "end_to_end")


# -- traced run -----------------------------------------------------------

def _replay(rounds):
    """Run prepared rounds; returns (op seconds at reference speed,
    [(op, result, error)])."""
    total, done = 0.0, []
    loop_s = calibration.loop_seconds()
    for ops in rounds:
        for op in ops:
            dt, result, error = _run_op(op)
            before, loop_s = loop_s, calibration.loop_seconds()
            total += dt * _scale(before + loop_s, 2)
            done.append((op, result, error))
    return total, done


def traced_run(workload, seed, seconds):
    wl = _load_library()
    import tracing
    n_rounds = max(1, round(seconds * TRACE_SHARE / ROUND_SECONDS[workload]))
    rounds = [wl.build_round(workload, seed, r) for r in range(n_rounds)]
    plain_s, plain = _replay(rounds)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_s, traced = _replay(rounds)
    finally:
        tracer.uninstall()
    outcomes = {}
    for name, done in (("plain", plain), ("traced", traced)):
        outcomes[name] = Counter()
        for op, result, error in done:
            outcome = wl.judge(op, result, error)
            outcomes[name][outcome] += 1
            if outcome == wl.FAILED:
                _report_failure(op, result, error)
    quadruples = sum(op.kind == "stability" for ops in rounds for op in ops)
    cli_values, cli_failed = cli_layer(seed)

    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.dump(os.path.join(out_dir, f"spans-{workload}-seed{seed}.bin"))

    self_s = tracer.self_times()
    counts = tracer.counts
    special = {
        "reps.enumerations_per_quadruple":
            counts["linalg.enumerate_subspaces.calls"] / quadruples
            if quadruples else 0.0,
        "adhm.joint_spectrum.refusals": outcomes["traced"][wl.REFUSED],
        "trace.overhead_ratio": traced_s / plain_s,
        **cli_values,
    }
    values = {}
    for m in _benchmark("per_layer"):
        name = m["name"]
        if name in special:
            values[name] = special[name]
        elif name.endswith(".self_s"):
            values[name] = self_s.get(name[:-len(".self_s")], 0.0)
        else:
            values[name] = counts.get(name, 0)
    print(f"workload {workload} seed {seed}: traced {n_rounds} rounds, "
          f"{len(traced)} ops, {len(tracer.span_start)} spans; "
          f"{traced_s:.3f} s traced vs {plain_s:.3f} s untraced")
    for m in _benchmark("per_layer"):
        print(f"  {m['name']:<40} {values[m['name']]:.6g} {m['unit']}")
    failed = outcomes["plain"][wl.FAILED] + outcomes["traced"][wl.FAILED] + cli_failed
    attempted = len(plain) + len(traced) + len(CLI_COMMANDS)
    return _result(failed == 0, attempted, failed, values, "per_layer")


# -- the cli layer ----------------------------------------------------------

CLI_COMMANDS = [
    ["dims", "--quiver", "jordan", "--v", "3", "--w", "1"],
    ["quiver", "double", "--quiver", "a2"],
    ["roots", "gg", "--quiver", "a2", "--v", '{"1":1,"2":1}'],
    ["rep", "stable", "--rep", "<rep>", "--theta", "plus"],
    ["adhm", "ideal", "--data", "<triple>"],
    ["mckay", "build", "--group", "bd:2"],
    ["conv", "hecke", "--n", "2", "--q", "3"],
]


def _cli_inputs(seed, directory):
    """Seeded rep.json (Jordan double over F_3) and triple.json files."""
    rng = random.Random(f"cli:{seed}")

    def mat(rows, cols):
        return [[rng.randrange(3) for _ in range(cols)] for _ in range(rows)]

    rep = {"quiver": "double:jordan", "field": {"kind": "prime", "p": 3},
           "v": {"0": 2}, "w": {"0": 1},
           "mats": {"x": mat(2, 2), "x*": mat(2, 2)},
           "i": {"0": mat(2, 1)}, "j": {"0": mat(1, 2)}}
    # the monomial triple of a seeded staircase of size 3
    cells = rng.choice([[(0, 0), (1, 0), (2, 0)], [(0, 0), (0, 1), (0, 2)],
                        [(0, 0), (1, 0), (0, 1)]])
    idx = {c: k for k, c in enumerate(cells)}
    x = [[0] * 3 for _ in range(3)]
    y = [[0] * 3 for _ in range(3)]
    for (a, b), k in idx.items():
        if (a + 1, b) in idx:
            x[idx[(a + 1, b)]][k] = 1
        if (a, b + 1) in idx:
            y[idx[(a, b + 1)]][k] = 1
    triple = {"field": {"kind": "rational"}, "n": 3, "x": x, "y": y,
              "i": [1, 0, 0], "j": [0, 0, 0]}
    paths = {}
    for name, data in (("rep", rep), ("triple", triple)):
        paths[f"<{name}>"] = os.path.join(directory, f"{name}.json")
        with open(paths[f"<{name}>"], "w") as fh:
            json.dump(data, fh)
    return paths


def _spawn_ms(argv, env=None):
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                          timeout=CLI_TIMEOUT_S)
    return (time.perf_counter() - t0) * 1000, proc


def cli_layer(seed):
    """Interpreter start, import and in-process run times of `qv`, and
    the cold commands, whose stdout must match the in-process report."""
    import quivar.cli
    env = _child_env()
    start_ms = statistics.median(
        _spawn_ms([sys.executable, "-c", "pass"])[0] for _ in range(5))
    snippet = ("import time; t = time.perf_counter(); import quivar.cli; "
               "print((time.perf_counter() - t) * 1000)")
    import_ms = statistics.median(
        float(_spawn_ms([sys.executable, "-c", snippet], env)[1].stdout)
        for _ in range(3))
    failed = 0
    run_ms, cold_ms = [], []
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_tmp") as tmp:
        paths = _cli_inputs(seed, tmp)
        for template in CLI_COMMANDS:
            argv = [paths.get(a, a) for a in template]
            for _ in range(2):  # the first call pays one-time lazy imports
                buf = io.StringIO()
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(buf):
                    status = quivar.cli.run(argv)
                dt = (time.perf_counter() - t0) * 1000
            run_ms.append(dt)
            ms, proc = _spawn_ms([sys.executable, "-m", "quivar.cli"] + argv, env)
            cold_ms.append(ms)
            if status != 0 or proc.returncode != 0 or \
                    proc.stdout != buf.getvalue().encode():
                failed += 1
                print(f"perfbench: qv {' '.join(template)}: cold output differs",
                      file=sys.stderr)
    return {"cli.interpreter_start_ms": start_ms, "cli.import_ms": import_ms,
            "cli.run_ms": statistics.median(run_ms),
            "cli.cold_command_ms": statistics.median(cold_ms)}, failed


# -- every workload ---------------------------------------------------------

def all_workloads(seed, seconds):
    """Each workload in a fresh process; prints every end-to-end metric."""
    results = {}
    for name in _workload_names():
        proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", "0"],
                              cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"perfbench: workload {name} exited {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(f"{'metric':<14}" + "".join(f"{n:>14}" for n in results))
    for m in _benchmark("end_to_end"):
        print(f"{m['name']:<14}" + "".join(
            f"{r['metrics'][m['name']]['value']:>14.6g}" for r in results.values())
            + f"  {m['unit']}")
    print(f"{'fail_ratio':<14}" + "".join(
        f"{r['failed'] / r['attempted']:>14.6g}" for r in results.values())
        + "  ratio")
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {n: r["metrics"] for n, r in results.items()}}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    _require_sources()
    names = _workload_names()
    if args.workload != "all" and args.workload not in names:
        p.error(f"--workload must be one of {', '.join(names)} or all")
    if args.probe:
        probe(args.workload, args.seed)
        return
    _pin_to_one_cpu()
    if args.workload == "all":
        result = all_workloads(args.seed, args.seconds)
    elif args.trace:
        result = traced_run(args.workload, args.seed, args.seconds)
    else:
        result = timed_run(args.workload, args.seed, args.seconds)
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
