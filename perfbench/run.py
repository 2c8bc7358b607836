"""netgame benchmark: closed-loop CLI workloads with checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload solve-fine --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Each op is one child process, ``python -m netgame.cli ARGV`` with ``src`` on
``PYTHONPATH``, started only after the previous one exited (one client,
closed loop).  A fresh process per op is deliberate: a CLI user pays import
and lazy set-up on every command.  Children run with OPENBLAS_NUM_THREADS=1:
threaded LAPACK stalled for 0.1-0.2 s on some small solves in fresh
processes on a 2-vCPU host, and single-threaded is as fast at these sizes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced ops with ops run under ``traced_cli.py`` and prints the per-layer
metrics.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it repeat the
metrics with units and sample counts.  A run record, the per-op timings and
any spans go to ``perfbench/out/results/``.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1"}
SETUP_REPEATS = 5
OP_TIMEOUT_S = 60
IMPORT = [sys.executable, "-c", "import netgame.cli"]
# A fixed child that runs no netgame code: a fresh interpreter, numpy, a dict
# loop and a sort.  It runs just before every op, so its wall time says how
# fast the host is at that moment.
REFERENCE = [sys.executable, "-c", "\n".join([
    "import numpy as np",
    "d = {}",
    "for i in range(200000): d[i * 7919 % 200003] = i",
    "np.sort(np.arange(1000000, dtype=float)[::-1])",
])]

# The gated end-to-end and the per-layer metrics, with their units, are the
# ones BENCHMARK.json lists.  On a shared 2-vCPU host, contention came in
# episodes that slowed every op by 35-85% for a minute or more.  Over ten
# seeds, the run-to-run spread of the median op time reached 0.37, and even
# the fastest op's spread reached 0.33.  Dividing each op by reference runs
# taken around it cancels most of the host's speed.
#
# setup_s is gated the same way, but its unit is seconds: each import sample
# is divided by the reference runs just before and after it, then multiplied
# by REFERENCE_S, the reference child's median wall time on the host where
# the benchmark was written.  So setup_s reads in seconds at that host's
# speed; the raw seconds are reported as setup_raw_s.
REFERENCE_S = 0.2
# Printed and saved with every run, but not gated.
REPORTED = {
    "setup_raw_s": "s",
    "op_p50_s": "s",
    "op_min_s": "s",
    "ops_per_s": "ops/s",
    "fail_ratio": "1",
    "ref_p50_s": "s",
}
# Files in a simulate op's output directory that netsim writes, not cli.
NETSIM_FILES = {"edges.txt", "edges.meta.json"}


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def host_steal_s():
    """Host-wide steal time so far, from the ``cpu`` line of /proc/stat."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def run_child(cmd, env, log):
    """Run one child to completion; return (exit code, wall s, rusage).

    The child is killed if it outlives OP_TIMEOUT_S, and always reaped.
    """
    with open(log, "wb") as fh:
        start = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


class Runner:
    """Starts the children of one run, in its work directory."""

    def __init__(self, work):
        self.work = work
        self.env = {key: value for key, value in os.environ.items() if key != "NETGAME_OUT"}
        self.env.update(BLAS_THREADS, PYTHONPATH=str(SRC))

    def op(self, argv, op_id, traced):
        """Run one CLI command; the record says how long it took and whether it exited cleanly."""
        log = self.work / f"{op_id}.log"
        if traced:
            spans_path = self.work / f"{op_id}.spans.json"
            cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(spans_path), op_id, *argv]
        else:
            cmd = [sys.executable, "-m", "netgame.cli", *argv]
        steal = host_steal_s()
        code, wall, usage = run_child(cmd, self.env, log)
        record = {
            "op": op_id, "argv": argv, "traced": traced, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_mb": usage.ru_maxrss / 1024,
            "steal_s": host_steal_s() - steal, "exit": code, "problem": None,
        }
        output = log.read_text(errors="replace")
        if code != 0 or "Traceback (most recent call last)" in output:
            record["problem"] = f"exit {code}: {output.strip()[-300:]}"
        elif traced:
            trace = json.loads(spans_path.read_text())
            record["spans"] = trace["spans"]
            record["op_s"] = wall - trace["post_s"]
        return record

    def warm_up(self):
        """Import the program once, untimed, so byte-code caches are filled."""
        if run_child(IMPORT, self.env, self.work / "import.log")[0] != 0:
            raise SetupError("import netgame.cli failed: "
                             + (self.work / "import.log").read_text()[-300:])

    def reference_s(self):
        """Wall time of one REFERENCE child."""
        code, wall, _ = run_child(REFERENCE, self.env, self.work / "reference.log")
        if code != 0:
            raise SetupError("the reference child failed: "
                             + (self.work / "reference.log").read_text()[-300:])
        return wall

    def setup_sample(self, workload, k):
        """One fresh ``import netgame.cli`` process plus drawing an argv.

        Returns its wall time and that time divided by the mean of the
        reference runs just before and just after it.
        """
        before = self.reference_s()
        start = perf_counter()
        run_child(IMPORT, self.env, self.work / "import.log")
        workload.argv(random.Random(k), self.work / "unused")
        wall = perf_counter() - start
        return wall, wall / statistics.fmean([before, self.reference_s()])


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

def _with_out(argv, out):
    argv = list(argv)
    argv[argv.index("--out") + 1] = str(out)
    return argv


def measure(workload, runner, seed, seconds, trace):
    """The closed loop: ops until ``seconds`` have passed, then the run-level checks.

    Untraced runs also take SETUP_REPEATS set-up samples, one before each of
    the first ops, so that a short slow spell of the host moves few of them.
    """
    from workloads import self_test

    argv_rng = random.Random(f"argv:{seed}")
    check_rng = random.Random(f"check:{seed}")
    ops, setup = [], []
    start = perf_counter()
    while len(ops) < 1 + trace or perf_counter() - start < seconds:
        if not trace and len(setup) < SETUP_REPEATS:
            setup.append(runner.setup_sample(workload, len(setup)))
        op_id = f"op{len(ops)}"
        out = runner.work / op_id
        argv = workload.argv(argv_rng, out)
        ref_s = runner.reference_s()
        record = runner.op(argv, op_id, traced=bool(trace) and len(ops) % 2 == 1)
        record["ref_s"] = ref_s
        if record["problem"] is None:
            try:
                workload.check(argv, out, check_rng)
            except Exception as exc:    # any check error fails the op, not the run
                record["problem"] = f"{type(exc).__name__}: {exc}"
            record["cli_bytes"] = sum(f.stat().st_size for f in out.iterdir()
                                      if f.name not in NETSIM_FILES)
        if ops:
            shutil.rmtree(out, ignore_errors=True)
        ops.append(record)
    while not trace and len(setup) < SETUP_REPEATS:
        setup.append(runner.setup_sample(workload, len(setup)))

    first, selftest = ops[0], None
    if first["problem"] is None:
        out = runner.work / "op0"
        replay = runner.work / "replay"

        def rerun():
            runner.op(_with_out(first["argv"], replay), "replay", traced=False)
            return replay

        try:
            state = workload.check_once(first["argv"], out, rerun)
        except Exception as exc:        # as for per-op checks: the op fails, the run goes on
            first["problem"] = f"{type(exc).__name__}: {exc}"
        else:
            selftest = self_test(workload, first["argv"], out, state, runner.work)
    return ops, setup, selftest


def host_refs(ops):
    """Per op, the mean of three reference runs: the ones just before the
    previous op, just before this op and just after it.

    Three runs cut the reference's own noise, and the host's speed changes
    little within the few seconds they span.
    """
    refs = [op["ref_s"] for op in ops]
    return [statistics.fmean(refs[max(0, i - 1):i + 2]) for i in range(len(ops))]


def end_to_end(ops, setup):
    """(value, sample description) per gated and reported metric."""
    walls = [op["wall_s"] for op in ops]
    host = host_refs(ops)
    passed = sum(op["problem"] is None for op in ops)
    return {
        "setup_s": (REFERENCE_S * statistics.median(ratio for _, ratio in setup),
                    f"median of {len(setup)} fresh imports, each / the 2 reference runs "
                    f"around it, x {REFERENCE_S} s"),
        "op_p50_ref": (statistics.median(w / h for w, h in zip(walls, host)),
                       f"median of {len(ops)} ops, each / the nearest 3 reference runs"),
        "peak_rss_mb": (max(op["maxrss_mb"] for op in ops), f"max of {len(ops)} ops"),
        "op_p50_s": (statistics.median(walls), f"median of {len(walls)} ops"),
        "op_min_s": (min(walls), f"fastest of {len(walls)} ops"),
        "ops_per_s": (passed / sum(walls), f"{passed} passed ops / {sum(walls):.3f} s of ops"),
        "fail_ratio": ((len(ops) - passed) / len(ops), f"{len(ops) - passed} of {len(ops)} ops"),
        "ref_p50_s": (statistics.median(op["ref_s"] for op in ops), f"median of {len(ops)} runs"),
        "setup_raw_s": (statistics.median(wall for wall, _ in setup),
                        f"median of {len(setup)} fresh imports"),
    }


def op_layers(spans, cli_bytes):
    """Per-layer values of one traced op."""
    child = defaultdict(float)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child[parent] += end - start
    values = Counter({"cli.bytes_written": cli_bytes})
    for index, (name, start, end, parent, _, counts) in enumerate(spans):
        values[f"{name}.calls"] += 1
        values[f"{name}.busy_s"] += end - start
        values[f"{name}.self_s"] += end - start - child[index]
        values[f"{name.split('.')[0]}.self_s"] += end - start - child[index]
        for key, count in (counts or {}).items():
            values[f"{name}.{key}"] += count
    build = "typespace.build_pi"
    if values[f"{build}.rows"]:
        values[f"{build}.distinct_row_ratio"] = (values[f"{build}.distinct"]
                                                 / values[f"{build}.rows"])
    for mode in ("multigraph", "simple"):
        gen = f"netsim.generate.{mode}"
        if values[f"{gen}.busy_s"]:
            values[f"{gen}.edges_per_s"] = values[f"{gen}.edges"] / values[f"{gen}.busy_s"]
    return values


def per_layer(ops, names):
    traced = [op for op in ops if op["traced"] and op["problem"] is None]
    plain = [op for op in ops if not op["traced"]]
    if not traced:
        raise SetupError("no traced op passed its checks")
    per_op = [op_layers(op["spans"], op["cli_bytes"]) for op in traced]
    metrics = {name: (statistics.median(v[name] for v in per_op),
                      f"median of {len(per_op)} traced ops") for name in names}
    metrics["run.cpu_s"] = (statistics.median(op["cpu_s"] for op in plain),
                            f"median of {len(plain)} untraced ops")
    metrics["run.host_steal_s"] = (statistics.fmean(op["steal_s"] for op in ops),
                                   f"mean over {len(ops)} ops, host-wide")
    metrics["run.host_ref_s"] = (statistics.median(op["ref_s"] for op in ops),
                                 f"median of {len(ops)} reference runs")
    host = dict(zip((op["op"] for op in ops), host_refs(ops)))
    ratio = (statistics.median(op["op_s"] / host[op["op"]] for op in traced)
             / statistics.median(op["wall_s"] / host[op["op"]] for op in plain))
    metrics["trace.overhead_ratio"] = (
        ratio, f"{len(traced)} traced / {len(plain)} untraced ops, each in reference units")
    return metrics, per_op


def span_table(ops):
    """Self time per span name, per traced op, largest first."""
    traced = [op for op in ops if op["traced"] and op["problem"] is None]
    total = Counter()
    for op in traced:
        values = op_layers(op["spans"], 0)
        total.update({k[:-len(".self_s")]: v for k, v in values.items()
                      if k.endswith(".self_s") and k.count(".") > 1})
    return [(name, v / len(traced)) for name, v in total.most_common()]


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------

def run_record(args, workload):
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        sha = git.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "netgame").glob("*.py")):
        source.update(path.read_bytes())
    return {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": sha, "source_sha256": source.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
    }


def run_workload(args, workload, spec):
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        runner = Runner(work)
        record = run_record(args, workload.name)
        runner.warm_up()
        ops, setup, selftest = measure(workload, runner, args.seed, args.seconds, args.trace)
        if args.trace:
            metrics, per_op = per_layer(ops, [m["name"] for m in spec["per_layer"]])
        else:
            metrics, per_op = end_to_end(ops, setup), None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(op["problem"] is not None for op in ops)
    record.update(ops_per_run=len(ops), failed=failed, setup_samples=[{"wall_s": w, "per_ref": r} for w, r in setup],
                  host_steal_s=sum(op["steal_s"] for op in ops), selftest_problems=selftest)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    result = {
        "correct": failed == 0 and selftest == [],
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": units[name]} for name in units},
    }
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    path = results / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    path.write_text(json.dumps({"record": record, "result": result, "ops": ops,
                                "per_op_layers": per_op}, indent=1) + "\n")

    print(f"{workload.name}: seed {args.seed}, {len(ops)} ops, {failed} failed, "
          f"self-test {'skipped' if selftest is None else selftest or 'ok'}, "
          f"OPENBLAS_NUM_THREADS={BLAS_THREADS['OPENBLAS_NUM_THREADS']}, "
          f"host steal {record['host_steal_s']:.2f} s")
    for op in ops:
        if op["problem"]:
            print(f"  FAILED {op['op']}: {op['problem']}")
    for name, unit in (units if args.trace else {**units, **REPORTED}).items():
        value, samples = metrics[name]
        print(f"  {name:<44} {value:>14.6g} {unit:<13} ({samples})")
    if args.trace:
        print("  self time per span, per traced op:")
        for name, seconds in span_table(ops):
            print(f"    {name:<42} {seconds:>12.6f} s")
    print(f"  results: {path.relative_to(ROOT)}")
    print(json.dumps(result))


def load_definition():
    """BENCHMARK.json: the workloads and the metrics with their units."""
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read BENCHMARK.json: {exc}") from exc


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = load_definition()
        names = [w["name"] for w in spec["workloads"]]
        if not (SRC / "netgame" / "cli.py").is_file():
            raise SetupError(f"no netgame sources under {SRC}")
        if args.workload != "all" and args.workload not in names:
            raise SetupError(f"unknown workload {args.workload!r}; have {names}")
        os.environ.update(BLAS_THREADS)      # before numpy loads, for the in-process checks
        sys.path.insert(0, str(SRC))
        from workloads import WORKLOADS

        for name in names if args.workload == "all" else [args.workload]:
            run_workload(args, WORKLOADS[name], spec)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
