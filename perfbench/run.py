"""respdl benchmark: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload paper_step --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run it from the repository root. It imports the program from ``src/``,
makes the workload's inputs from the seed in a fresh directory under
``.bench_out/``, sets up (several times; the median counts), warms up,
then runs rounds of operations for at least ``--seconds`` and at least the
workload's minimum round count. Every operation's output is checked; a
failed check is counted, never raised.

With ``--trace 0`` the last line of standard output is a JSON object with
the ``end_to_end`` metrics of BENCHMARK.json; with ``--trace 1`` it holds
the ``per_layer`` metrics, measured from spans recorded around every call
into the program's layers, and the spans are written to ``.bench_out/``.
Lines before it, starting with ``#``, are for people: the machine, every
metric with its unit, and the failed checks. ``--workload all`` runs each
workload in its own child process, one after another.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("paper_step", "featurize", "desk_cv")
SETUP_REPS = 3


def bootstrap():
    """Import the program from this checkout's ``src/`` or exit non-zero."""
    src = ROOT / "src"
    if not (src / "respdl" / "__init__.py").is_file():
        sys.exit(f"benchmark: program source not found under {src}")
    sys.path.insert(0, str(src))
    import respdl

    if Path(respdl.__file__).resolve().parent != (src / "respdl").resolve():
        sys.exit(f"benchmark: imported respdl from {respdl.__file__}, not from {src}")


def machine():
    """The machine a result was measured on."""
    import ctypes

    import numpy as np

    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "blas": None,
        "blas_threads": None,
    }
    try:
        info["blas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError, AttributeError):
        pass
    try:
        core = getattr(np, "_core", None) or np.core
        lib = ctypes.CDLL(core._multiarray_umath.__file__)
    except (OSError, AttributeError):
        return info
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if threads is not None:
                threads.restype = ctypes.c_int
                threads.argtypes = []
                info["blas_threads"] = threads()
            if config is not None:
                config.restype = ctypes.c_char_p
                config.argtypes = []
                info["blas"] = config().decode()
            if threads is not None:
                return info
    return info


class Checks:
    """Operations attempted and correctness checks failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, what, verdicts):
        for ok in verdicts if isinstance(verdicts, list) else [verdicts]:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.failures.append(what)


def attempt(op, checks, what):
    """Run one checked operation and record its verdicts; an exception
    counts as a failed check instead of ending the run. Returns the seconds
    the operation took, or None if it raised."""
    t0 = time.perf_counter()
    try:
        verdicts = op()
    except Exception:  # a crashing operation is a failed check, and the run goes on
        checks.failures.append(traceback.format_exc(limit=3))
        checks.record(what, False)
        return None
    seconds = time.perf_counter() - t0
    checks.record(what, verdicts)
    return seconds


def run_rounds(workload, seconds, checks, tracer, times, walls):
    """Run rounds for at least ``seconds`` and the minimum round count,
    appending each operation's duration to ``times[kind]`` and each
    round's wall time to ``walls``."""
    start = time.perf_counter()
    r = 0
    while r < workload.min_rounds or (
        r < workload.max_rounds and time.perf_counter() - start < seconds
    ):
        workload.ensure_round(r)
        round_start = time.perf_counter()
        for kind, op in workload.ops(r):
            span = tracer.open(f"op.{kind}") if tracer else None
            took = attempt(op, checks, kind)
            if span:
                tracer.close(span)
            if took is not None:
                times[kind].append(took)
        walls.append(time.perf_counter() - round_start)
        r += 1


def run_workload(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bootstrap()
    import numpy as np  # noqa: F401  (counted in set-up as an import)

    import perlayer
    import spans
    import workloads

    import_s = time.perf_counter() - T_START
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workloads.SIZES[args.size])
        prepare_s = []
        for rep in range(SETUP_REPS):
            (workdir / f"setup{rep}").mkdir()
            t0 = time.perf_counter()
            workload.prepare(workdir / f"setup{rep}")
            prepare_s.append(time.perf_counter() - t0)
        parts = workload.parts()
        kinds = {kind for part in parts for kind, _ in part.ops(0)}
        checks = Checks()
        warm_up_s = attempt(workload.warm_up, checks, "warm_up") or 0.0

        times, walls = defaultdict(list), []
        tracer = spans.Tracer() if args.trace else None
        if tracer:
            perlayer.instrument(tracer)
        try:
            for part in parts:
                for model in part.traced_models() if tracer else []:
                    perlayer.instrument_model(tracer, model)
                run_rounds(part, args.seconds / len(parts), checks, tracer, times, walls)
                part.release()
        finally:
            if tracer:
                tracer.restore()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    med = {kind: statistics.median(v) for kind, v in times.items()}
    complete = kinds <= med.keys()
    end_to_end = {
        "setup_s": import_s + statistics.median(prepare_s) + warm_up_s,
        "wall_s": sum(med.values()) if complete else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    named = workload.summary(med) if complete else {}
    per_layer = {}
    if tracer:
        rounds = len(walls) / len(parts)  # a round runs each part once
        per_layer = perlayer.per_layer_metrics(tracer, rounds, sum(walls), spans.wrapper_cost_s())
        tracer.dump(OUT / f"{args.workload}-seed{args.seed}-spans.json")

    declared = spec["per_layer" if args.trace else "end_to_end"]
    values = per_layer if args.trace else end_to_end
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared}
    correct = complete and checks.failed == 0
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "machine": machine(),
        "rounds": len(walls), "op_seconds": dict(times),
        "setup": {"import_s": import_s, "prepare_s": prepare_s, "warm_up_s": warm_up_s},
        "end_to_end": end_to_end, "named": named, "per_layer": per_layer,
        "attempted": checks.attempted, "failed": checks.failed, "failures": checks.failures,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} size={args.size} rounds={len(walls)} "
          f"trace={args.trace}")
    print(f"# machine {json.dumps(record['machine'])}")
    for name, value in {**end_to_end, **named, **per_layer}.items():
        print(f"#   {name:40s} {value:.6g}")
    print(f"#   {'failed_frac':40s} {checks.failed}/{checks.attempted}")
    for failure in checks.failures:
        print("# FAILED " + failure.strip().replace("\n", "\n#   "))
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


def run_all(args):
    """Each workload in its own process, one at a time; one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"benchmark: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is the self-test's scale")
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
