"""freeprob benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds src/freeprob.  Workloads
(see workloads.py and README.md): series-kernel and conv-warm call the
library in process; cli-mix starts one `python -m freeprob` process per
op.  Each is a closed loop with one client.

--trace 0 measures the end-to-end metrics with tracing off: set-up is
done SETUPS times (fresh import plus one warm-up call per distinct op
kind) and its median reported; then whole rounds run until S seconds of
op time and at least MIN_OPS ops have been timed.  --trace 1 runs one
untraced pass and two traced passes (each: fresh set-up, round 0, one
timed rerun of round 0), reports the per-layer metrics, and checks that
every count repeats exactly between the two traced passes.

Every op's output is checked outside the timed region by an independent
identity (exact.py); cli-mix also requires byte-identical stdout when an
argv repeats, and round 0 of the default seed must match the committed
digests.  The last stdout line is the JSON result; the line before it
records the context (Python, nproc, commit, per-kind latencies, and a
calibration loop's time at start and end, which shows how fast the
machine ran).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, time
from types import SimpleNamespace

import layertrace as LT
import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
WORK = ROOT / ".perfbench_work"

DEFAULT_SEED = 1
SETUPS = 3
MIN_OPS = 100
WALL_LIMIT_S = 140.0  # stop starting rounds after this; a run must end in 180 s
WARM_ROUND = -1       # input round used by set-up warm-up calls
CLI_INPUT_SETS = 2    # cli-mix round r reuses input set r % 2, so argv repeat
CHILD_TIMEOUT_S = 60
TRACE_REPEATS = 1     # reruns of round 0 per trace pass, timed for the overhead ratio

LIBRARY = ("sequences", "ncpart", "incidence", "series", "transforms", "ksym", "matmodel")
IN_PROCESS = ("series-kernel", "conv-warm")
MAXIMA = ("series.max_order", "series.coeff_bits_max")
TRACE_PREFIX = "PERFBENCH_TRACE "  # shim.py's last stderr line


class Stats:
    """Latencies and outcomes of the timed ops of one run or pass."""

    def __init__(self):
        self.lat = []
        self.by_kind = {}
        self.failed = 0
        self.messages = []

    def record(self, kind, seconds, ok, why=""):
        self.lat.append(seconds)
        self.by_kind.setdefault(kind, []).append(seconds)
        if not ok:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(f"{kind}: {why or 'check failed'}")

    @property
    def attempted(self):
        return len(self.lat)

    @property
    def timed(self):
        return sum(self.lat)

    def ops_per_s(self):
        return (self.attempted - self.failed) / self.timed if self.timed else 0.0


def digest(text) -> str:
    data = text if isinstance(text, bytes) else text.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def load_digests(workload):
    try:
        return json.loads(DIGESTS.read_text()).get(workload)
    except (OSError, ValueError):
        return None


def check_output(op, raw, out):
    """(ok, why) for one op; a checker that raises counts as a failure."""
    try:
        return bool(op.check(raw, out)), ""
    except Exception as exc:  # noqa: BLE001 - any checker fault is a failed op
        return False, f"checker raised {exc!r}"


# ---------------------------------------------------------------------------
# runners: one per workload kind, with the same set_up / run_round / summary


def fresh_library():
    """Import freeprob afresh, so lazy caches start empty."""
    for name in [n for n in sys.modules if n == "freeprob" or n.startswith("freeprob.")]:
        del sys.modules[name]
    return {name: importlib.import_module(f"freeprob.{name}") for name in LIBRARY}


class InProcess:
    """series-kernel and conv-warm: library calls in this process."""

    def __init__(self, name, seed, traced=False):
        self.name, self.ops, self.seed = name, W.WORKLOADS[name], seed
        self.tracer = LT.Tracer() if traced else None
        self.fp = None
        self.unattributed = 0.0

    def set_up(self):
        """Fresh import plus one warm-up call per distinct op kind."""
        warm = {}
        for i, op in enumerate(self.ops):
            if op.kind not in warm:
                warm[op.kind] = (op, op.gen(W.op_rng(self.name, self.seed, WARM_ROUND, i)))
        t0 = perf_counter()
        mods = fresh_library()
        if self.tracer is not None:
            self.tracer.install(mods)
        self.fp = SimpleNamespace(**mods)
        for op, raw in warm.values():
            op.bind(self.fp, raw)()
        return perf_counter() - t0

    def run_round(self, round_no, stats, golden=None):
        """Time and check one round; returns the digest of each output."""
        raws = [op.gen(W.op_rng(self.name, self.seed, round_no, i)) for i, op in enumerate(self.ops)]
        calls = [op.bind(self.fp, raw) for op, raw in zip(self.ops, raws)]
        sums = []
        for slot, (op, raw, call) in enumerate(zip(self.ops, raws, calls)):
            since = len(self.tracer.spans) if self.tracer else 0
            t0 = perf_counter()
            try:
                out, err = call(), None
            except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
                out, err = None, exc
            dt = perf_counter() - t0
            if self.tracer is not None:
                self.unattributed += dt - self.tracer.root_time(since)
            if err is not None:
                stats.record(op.kind, dt, False, "".join(traceback.format_exception_only(err)).strip())
                sums.append(None)
                continue
            ok, why = check_output(op, raw, out)
            sums.append(digest(W.canonical(out)))
            stats.record(op.kind, dt, *golden_check(ok, why, golden, slot, sums[-1]))
        return sums

    def summary(self):
        out = self.tracer.summary()
        out["bench.unattributed_s"] = self.unattributed
        return out

    def close(self):
        fresh_library()  # drop traced modules

    @staticmethod
    def peak_rss_mb():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def golden_check(ok, why, golden, slot, value):
    if ok and golden is not None and golden[slot] != value:
        return False, "output differs from the committed digest"
    return ok, why


def child_env(extra=None):
    env = {k: v for k, v in os.environ.items() if k not in ("FREEPROB_MAX_N", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    env.update(extra or {})
    return env


class CliRunner:
    """cli-mix: one process per op; input files are written under WORK."""

    def __init__(self, name, seed, traced=False):
        self.ops, self.seed, self.traced = W.WORKLOADS[name], seed, traced
        self.inputs = {}
        self.first_stdout = {}
        self.children = []  # (is_round_op, seconds, process) while traced

    def prepare(self, tag, round_no):
        """Raw inputs and argv for a round; files are written once per tag."""
        if tag in self.inputs:
            return self.inputs[tag]
        folder = WORK / str(tag)
        folder.mkdir(parents=True, exist_ok=True)
        prepared = []
        for i, op in enumerate(self.ops):
            raw = op.gen(W.op_rng("cli-mix", self.seed, round_no, i))
            for fname, content in op.files(raw).items():
                (folder / f"{i}_{fname}").write_text(json.dumps(content))
            argv = op.argv(raw, lambda fname: str((folder / f"{i}_{fname}").relative_to(ROOT)))
            prepared.append((op, raw, argv))
        self.inputs[tag] = prepared
        return prepared

    def spawn(self, argv, is_round_op):
        if self.traced:
            cmd = [sys.executable, str(HERE / "shim.py"), *argv]
            env = child_env({"PERFBENCH_T0": repr(time())})
        else:
            cmd = [sys.executable, "-m", "freeprob", *argv]
            env = child_env()
        t0 = perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                  timeout=CHILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
            proc = subprocess.CompletedProcess(cmd, -9, exc.stdout or b"", exc.stderr or b"")
        dt = perf_counter() - t0
        if self.traced:
            self.children.append((is_round_op, dt, proc))
        return dt, proc

    def set_up(self):
        """One process per distinct op kind."""
        t0 = perf_counter()
        seen = set()
        for op, _raw, argv in self.prepare("warm", WARM_ROUND):
            if op.kind not in seen:
                seen.add(op.kind)
                self.spawn(argv, False)
        return perf_counter() - t0

    def run_round(self, round_no, stats, golden=None):
        """Time and check one round; returns the digest of each stdout."""
        tag = round_no % CLI_INPUT_SETS
        sums = []
        for slot, (op, raw, argv) in enumerate(self.prepare(tag, tag)):
            dt, proc = self.spawn(argv, True)
            ok, why = self.verify(op, raw, argv, proc)
            sums.append(digest(proc.stdout))
            stats.record(op.kind, dt, *golden_check(ok, why, golden, slot, sums[-1]))
        return sums

    def verify(self, op, raw, argv, proc):
        if proc.returncode != 0:
            return False, f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-300:]}"
        key = tuple(argv)
        if key in self.first_stdout:
            if proc.stdout != self.first_stdout[key]:
                return False, "stdout not byte-identical across repeats of one argv"
            return True, ""
        self.first_stdout[key] = proc.stdout
        return check_output(op, raw, proc.stdout.decode())

    def summary(self):
        """Per-layer totals over the children started so far."""
        out = {"bench.unattributed_s": 0.0, "cli.stdout_bytes": 0, "cli.nonzero_exits": 0}
        for is_round_op, dt, proc in self.children:
            lines = proc.stderr.decode(errors="replace").splitlines()
            if not lines or not lines[-1].startswith(TRACE_PREFIX):
                raise RuntimeError("child printed no trace: " + "\n".join(lines[-5:]))
            child = json.loads(lines[-1][len(TRACE_PREFIX):])
            for key, value in child.items():
                out[key] = max(out.get(key, 0), value) if key in MAXIMA else out.get(key, 0) + value
            out["cli.stdout_bytes"] += len(proc.stdout)
            out["cli.nonzero_exits"] += proc.returncode != 0
            if is_round_op:
                out["bench.unattributed_s"] += dt - child["cli.startup_s"] - child["cli.run_s"]
        return out

    def close(self):
        pass

    @staticmethod
    def peak_rss_mb():
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def runner_for(name, seed, traced=False):
    return (InProcess if name in IN_PROCESS else CliRunner)(name, seed, traced)


# ---------------------------------------------------------------------------
# the two kinds of run


def measure(name, seed, seconds, started):
    """End-to-end run: SETUPS set-ups, then whole rounds until `seconds`
    of op time and MIN_OPS ops."""
    run = runner_for(name, seed)
    setups = [run.set_up() for _ in range(SETUPS)]
    stats = Stats()
    golden = load_digests(name) if seed == DEFAULT_SEED else None
    if seed == DEFAULT_SEED and golden is None:
        stats.messages.append("no committed digests for this workload")
        stats.failed += 1
    round_no = 0
    while (stats.timed < seconds or stats.attempted < MIN_OPS) and perf_counter() - started < WALL_LIMIT_S:
        run.run_round(round_no, stats, golden if round_no == 0 else None)
        round_no += 1
    return stats, statistics.median(setups), run.peak_rss_mb(), round_no


def trace(name, seed):
    """One untraced and two traced passes: fresh set-up, round 0 (whose
    per-layer summary is kept), then TRACE_REPEATS timed reruns of it."""
    passes = []
    for traced in (False, True, True):
        run = runner_for(name, seed, traced)
        run.set_up()
        first, timed = Stats(), Stats()
        run.run_round(0, first)
        summary = run.summary() if traced else {}
        for _ in range(TRACE_REPEATS):
            run.run_round(0, timed)
        run.close()
        passes.append((summary, first, timed))
    return passes


def per_layer_metrics(name, passes):
    """Per-layer metrics from the traced passes; checks counts repeat."""
    problems = []
    (_, _, base), (first, _, t1), (second, _, t2) = passes
    counted = [k for k in first if not k.endswith("_s")]
    for key in counted:
        if first[key] != second.get(key):
            problems.append(f"count {key} differs between traced passes: {first[key]} vs {second.get(key)}")
    if name == "series-kernel":
        for key in ("incidence.conv_calls", "ncpart.partitions_enumerated"):
            if first[key] != 0:
                problems.append(f"{key} = {first[key]} on series-kernel, expected 0")
    metrics = {key: first[key] if key in counted else (first[key] + second[key]) / 2 for key in first}
    req = first["incidence.pair_stats_requests"]
    metrics["incidence.pair_stats_hit_ratio"] = (
        (req - first["incidence.pair_stats_fills"]) / req if req else 0.0)
    for key in ("cli.startup_s", "cli.run_s", "cli.stdout_bytes", "cli.nonzero_exits"):
        metrics.setdefault(key, 0)
    traced_ops = statistics.mean([t1.ops_per_s(), t2.ops_per_s()])
    metrics["bench.ops_per_s_traced"] = traced_ops
    metrics["bench.ops_per_s_untraced"] = base.ops_per_s()
    metrics["bench.tracing_overhead"] = traced_ops / base.ops_per_s() if base.ops_per_s() else 0.0
    return metrics, problems


def load_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def calibration_ms():
    """Time of a fixed pure-Python loop: how fast this machine ran just
    now, for reading run-to-run noise.  Not a metric."""
    t0 = perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return round((perf_counter() - t0) * 1000, 3)


def context(name, args, stats, rounds):
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10, check=False).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "freeprob").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": commit, "source_sha256": src_hash.hexdigest()[:16],
        "rounds": rounds, "failed_op_ratio": stats.failed / max(stats.attempted, 1),
        "failures": stats.messages,
        "kind_median_ms": {k: round(statistics.median(v) * 1000, 3)
                           for k, v in sorted(stats.by_kind.items())},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="freeprob benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="write the default seed's round 0 output digests to digests.json")
    args = parser.parse_args(argv)
    started = perf_counter()
    if not (SRC / "freeprob" / "__init__.py").is_file():
        print(f"no freeprob sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("FREEPROB_MAX_N", None)
    WORK.mkdir(exist_ok=True)
    try:
        if args.record_digests:
            return record_digests(args.workload, DEFAULT_SEED)
        return run(args, started)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def merged(parts):
    out = Stats()
    for s in parts:
        out.lat += s.lat
        out.failed += s.failed
        out.messages += s.messages
        for k, v in s.by_kind.items():
            out.by_kind.setdefault(k, []).extend(v)
    return out


def run(args, started) -> int:
    e2e_units, layer_units = load_units()
    calibration = [calibration_ms()]
    name = args.workload
    if args.trace:
        passes = trace(name, args.seed)
        metrics, problems = per_layer_metrics(name, passes)
        stats = merged([s for _, first, timed in passes for s in (first, timed)])
        units, rounds = layer_units, 3 * (1 + TRACE_REPEATS)
    else:
        stats, setup_s, rss_mb, rounds = measure(name, args.seed, args.seconds, started)
        metrics = {
            "ops_per_s": stats.ops_per_s(),
            "op_p50_ms": statistics.median(stats.lat) * 1000,
            "op_p90_ms": statistics.quantiles(stats.lat, n=10)[8] * 1000,
            "setup_s": setup_s,
            "peak_rss_mb": rss_mb,
        }
        units, problems = e2e_units, []
        if stats.attempted < MIN_OPS:
            problems.append(f"only {stats.attempted} ops timed, need {MIN_OPS}")
    missing = sorted(set(units) - set(metrics))
    if missing:
        problems.append(f"metrics not measured: {missing}")
    calibration.append(calibration_ms())
    ctx = context(name, args, stats, rounds)
    ctx.update(problems=problems, calibration_ms=calibration)
    for line in stats.messages + problems:
        print(line, file=sys.stderr)
    print(json.dumps({"context": ctx}, sort_keys=True))
    print(json.dumps({
        "correct": stats.failed == 0 and not problems,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {k: {"value": metrics.get(k, 0), "unit": u} for k, u in units.items()},
    }))
    return 0


def record_digests(name, seed):
    run, stats = runner_for(name, seed), Stats()
    run.set_up()
    sums = run.run_round(0, stats)
    if stats.failed:
        print("\n".join(stats.messages), file=sys.stderr)
        return 1
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    table[name] = sums
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
