"""svdet benchmark: one workload, one seed, one result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload kfold-train --seed 1 --seconds 30 --trace 0

The run imports svdet from ./src, repeats the workload's set-up, then
drives the svdet CLI in-process as a closed loop for --seconds and
checks every call's outputs. With --trace 0 it reports the end-to-end
metrics; with --trace 1 it alternates untraced and traced rounds and
reports per-layer calls, self times and work counts, plus the tracing
overhead. The last line of standard output is the JSON result; the
lines before it describe the run and its environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS")
# One BLAS thread, set before numpy loads: on a few shared cores a second
# thread mostly measures how the host schedules it.
for _name in BLAS_ENV:
    os.environ[_name] = "1"

from layers import COUNTS, FUNCTIONS  # noqa: E402
from speed import REFERENCE_S, SpeedClock  # noqa: E402
from tracer import Tracer, layer_totals  # noqa: E402
from workloads import TOY_WORKLOADS, WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def import_svdet():
    """svdet from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    if not (src / "svdet" / "__init__.py").is_file():
        raise ImportError(f"no svdet package under {src}")
    sys.path.insert(0, str(src))
    import svdet
    import svdet.cli
    import svdet.synth
    if Path(svdet.__file__).resolve().parent != src / "svdet":
        raise ImportError(f"imported svdet from {svdet.__file__}, not {src}")
    return svdet


def git_commit(root: Path):
    """HEAD commit read from .git without running git; None outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy
    import scipy

    def blas(module):
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info.get('name')} {info.get('version')}"
        except (TypeError, KeyError, AttributeError):
            return "unknown"

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "numpy_blas": blas(numpy),
        "scipy": scipy.__version__, "scipy_blas": blas(scipy),
        "blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
        "git_commit": git_commit(ROOT),
    }


def tail(samples):
    """The sample with ten samples beyond it, but never below the median.

    That is the highest percentile with ten samples beyond it; with fewer
    than twenty samples it would fall below the median, and the median
    is reported instead. Returns (value, percentile).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def f1_score(counts):
    tp, _, fp, fn = counts
    return 2.0 * tp / (2 * tp + fp + fn) if tp + fp + fn else 0.0


class Round(NamedTuple):
    """One complete pass over the workload's inputs."""

    traced: bool
    wall: float        # summed call latencies, seconds
    ref_wall: float    # the same at reference speed (speed.py)
    lo: int            # the round's spans are tracer.spans[lo:hi]
    hi: int
    counts: dict       # work counts of a traced round


class Run:
    """Set-up repetitions, timed rounds and checks of one workload."""

    def __init__(self, svdet, workload, seed, seconds, trace, work: Path):
        self.svdet = svdet
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.clock = None
        self.setup_s = []          # at reference speed
        self.setup_raw_s = []
        self.state = None
        self.keys = []
        self.latencies = []        # every untraced timed call, reference s
        self.raw_latencies = []    # the same, as measured
        self.rounds = []           # complete Rounds
        self.first = {}            # input key -> (digest, confusion counts)
        self.attempted = 0
        self.failed = 0
        self.failures = []         # calls that exited non-zero or raised
        self.errors = []           # wrong or non-repeating outputs
        self.tracer = None
        self.start = perf_counter()

    def set_up(self):
        digests = []
        self.clock = SpeedClock()
        for rep in range(self.wl.setup_reps):
            rep_dir = self.work / f"setup{rep}"
            state, raw, ref = self.clock.time(
                lambda: self.wl.setup(self.svdet, rep_dir, self.seed))
            self.setup_s.append(ref)
            self.setup_raw_s.append(raw)
            digests.append(self.wl.setup_digest(state))
            if rep == 0:
                self.state = state
            else:
                shutil.rmtree(rep_dir)
        if len(set(digests)) != 1:
            self.errors.append("set-up repetitions produced different inputs "
                               "or checkpoints")
        self.keys = self.wl.inputs(self.state)

    def _call(self, argv):
        try:
            return self.svdet.cli.main(argv)
        except Exception:  # a crashing call is a failed op, not a crashed run
            traceback.print_exc(file=sys.stderr)
            return None

    def _round(self, tag, may_stop):
        """One pass over every input, then its checks.

        Returns the (raw, reference-speed) latency of every call made.
        """
        outputs = []
        latencies = []
        for key in self.keys:
            if may_stop and perf_counter() - self.start >= self.seconds:
                break
            out = self.work / "out" / f"{tag}-{key}"
            argv = self.wl.argv(self.state, key, out)
            rc, raw, ref = self.clock.time(lambda: self._call(argv))
            latencies.append((raw, ref))
            self.attempted += self.wl.ops_per_call
            outputs.append((key, out, rc))
        for key, out, rc in outputs:
            if rc != 0:
                self.failed += self.wl.ops_per_call
                self.failures.append(f"round {tag} {key}: exit code {rc}")
                continue
            try:
                result = self.wl.check(self.state, key, out)
            except Exception as exc:  # any unreadable output fails the check
                self.errors.append(f"round {tag} {key}: {exc!r}")
                continue
            first = self.first.setdefault(key, result)
            if result != first:
                self.errors.append(f"round {tag} {key}: outputs differ from "
                                   "the first call on the same input")
            shutil.rmtree(out, ignore_errors=True)
        return latencies

    def measure(self):
        """Warm-up rounds, then rounds until --seconds have passed.

        Untraced, the last round may stop early at the deadline; such a
        partial round adds call latencies but no round wall time. Traced,
        untraced and traced rounds alternate and end on a traced one.
        """
        for index in range(self.wl.warmup_rounds):
            self._round(f"warmup{index}", may_stop=False)
        if self.trace:
            self.tracer = Tracer([layer.name for layer in FUNCTIONS])
        self.start = perf_counter()
        index = 0
        while True:
            traced = self.trace and index % 2 == 1
            lo = hi = 0
            counts = None
            if traced:
                self.tracer.counts.clear()
                lo = len(self.tracer.spans)
                # the round's output checks call no svdet code: no spans
                with self.tracer.recording():
                    latencies = self._round(index, may_stop=False)
                hi = len(self.tracer.spans)
                counts = {layer.name: self.tracer.counts[layer.name]
                          for layer in COUNTS}
            else:
                may_stop = not self.trace and bool(self.rounds)
                latencies = self._round(index, may_stop)
                self.raw_latencies += [raw for raw, _ in latencies]
                self.latencies += [ref for _, ref in latencies]
            if len(latencies) == len(self.keys):
                self.rounds.append(Round(traced, sum(r for r, _ in latencies),
                                         sum(r for _, r in latencies),
                                         lo, hi, counts))
            index += 1
            if (perf_counter() - self.start >= self.seconds
                    and (traced or not self.trace)):
                break

    def pooled_f1(self):
        if set(self.first) != set(self.keys):
            return None
        totals = [sum(c[i] for _, c in self.first.values()) for i in range(4)]
        return f1_score(totals)

    def end_to_end(self):
        """Timings at reference speed; the measured ones go to detail."""
        walls = [r.ref_wall for r in self.rounds if not r.traced]
        raw_walls = [r.wall for r in self.rounds if not r.traced]
        tail_value, tail_pct = tail(self.latencies)
        raw_tail, _ = tail(self.raw_latencies)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ok = (self.attempted - self.failed) / self.attempted
        return {
            "wall_s": (statistics.median(walls), "s"),
            "call_p50_ms": (1000.0 * statistics.median(self.latencies), "ms"),
            "call_tail_ms": (1000.0 * tail_value, "ms"),
            "setup_s": (statistics.median(self.setup_s), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "ops_ok_frac": (ok, "fraction"),
        }, {"call_tail_percentile": tail_pct,
            "measured": {
                "wall_s": statistics.median(raw_walls),
                "call_p50_ms": 1000.0 * statistics.median(self.raw_latencies),
                "call_tail_ms": 1000.0 * raw_tail,
                "setup_s": statistics.median(self.setup_raw_s)}}

    def per_layer(self):
        plain = [r.wall for r in self.rounds if not r.traced]
        per_round = []
        for r in self.rounds:
            if r.traced:
                calls, self_s = layer_totals(self.tracer.spans, r.lo, r.hi)
                per_round.append((r.wall, calls, self_s, r.counts))
        calls0, counts0 = per_round[0][1], per_round[0][3]
        if any(r[1] != calls0 or r[3] != counts0 for r in per_round):
            self.errors.append("call counts or work counts differ between "
                               "traced rounds of the same inputs")
        traced_wall = statistics.median(r[0] for r in per_round)
        overhead = traced_wall - statistics.median(plain)
        covered = statistics.median(sum(r[2].values()) for r in per_round)
        if traced_wall - covered > max(abs(overhead), 0.01 * traced_wall):
            self.errors.append(
                f"spans cover {covered:.3f} s of a {traced_wall:.3f} s traced "
                f"round, more than the {overhead:.3f} s overhead apart")
        metrics = {}
        for layer in FUNCTIONS + COUNTS:
            is_count = layer in COUNTS
            n = counts0[layer.name] if is_count else calls0[layer.name]
            expected = self.wl.name in layer.workloads
            if (expected and layer.required and n == 0) or (not expected and n):
                self.errors.append(f"{layer.name}: {n} on {self.wl.name}, "
                                   f"expected {'>0' if expected else '0'}")
            if is_count:
                metrics[layer.name] = (n, "count")
            else:
                metrics[f"{layer.name}.calls"] = (n, "count")
                metrics[f"{layer.name}.self_s"] = (
                    statistics.median(r[2][layer.name] for r in per_round), "s")
        metrics["evaluation.pooled_f1"] = (self.pooled_f1(), "fraction")
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.coverage"] = (covered / traced_wall, "fraction")
        return metrics

    def write_trace(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"workload": self.wl.name, "seed": self.seed,
                   "rounds": [{"traced": r.traced, "wall_s": r.wall,
                               "spans": [r.lo, r.hi]} for r in self.rounds],
                   "spans": self.tracer.spans}
        path.write_text(json.dumps(payload) + "\n")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs, for the benchmark's self-check")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        svdet = import_svdet()
    except ImportError as exc:
        print(f"perfbench: cannot import svdet: {exc}", file=sys.stderr)
        return 2

    workload = (TOY_WORKLOADS if args.toy else WORKLOADS)[args.workload]
    scratch = BENCH_DIR / ".work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        run = Run(svdet, workload, args.seed, args.seconds, bool(args.trace),
                  work)
        run.set_up()
        run.measure()
        if args.trace:
            metrics = run.per_layer()
            detail = {}
            run.write_trace(BENCH_DIR / "traces"
                            / f"{args.workload}-seed{args.seed}.json")
        else:
            metrics, detail = run.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    detail.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "toy": args.toy, "pooled_f1": run.pooled_f1(),
        "ops_failed_frac": run.failed / run.attempted,
        "round_walls_s": [[r.traced, r.wall, r.ref_wall] for r in run.rounds],
        "call_latencies_s": run.raw_latencies,
        "call_latencies_ref_s": run.latencies,
        "setup_s": run.setup_raw_s, "setup_ref_s": run.setup_s,
        "probe_s": run.clock.probes, "probe_reference_s": REFERENCE_S,
        "failures": run.failures,
        "errors": run.errors,
        "environment": environment(),
    })
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value} {unit}")
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": not run.errors and run.pooled_f1() is not None,
        "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
