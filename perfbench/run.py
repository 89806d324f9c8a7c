"""Benchmark of qce: entropy axioms, game rewards and classical ordering.

    python3 perfbench/run.py --workload entropy_axioms --seed 1 --seconds 30 --trace 0

Runs one workload as a closed loop in this process: one request at a time,
each followed by a fixed reference slice (see ``refkernel``).  Every output
is checked against a computation made apart from qce (see ``checks``).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Raw wall-clock
figures go to standard error and, with the spans of a traced run, to
``perfbench/out/``.
"""

import os

# One BLAS/OpenMP thread: the benchmark is the only load and runs one request
# at a time.  QCE_THREADS is left at the program's default.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("QCE_THREADS", None)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = {
    "entropy_axioms": "wl_entropy",
    "game_rewards": "wl_games",
    "classical_ordering": "wl_classical",
}

END_TO_END = {
    "ops_per_ref": "op/ref",
    "latency_p50_ref": "ref",
    "latency_p90_ref": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "serialize.decode_ms": "ms",
    "serialize.encode_ms": "ms",
    "entropy.cond_ms": "ms",
    "entropy.dual_ms": "ms",
    "entropy.dual_calls": "count",
    "cusc.construct_ms": "ms",
    "cusc.verdict_ms": "ms",
    "channels.apply_ms": "ms",
    "channels.kraus_ops": "count",
    "linalg.density_ms": "ms",
    "channel_games.reward_ms": "ms",
    "optim.restarts": "count",
    "channel_games.ms_per_restart": "ms",
    "state_games.reward_ms": "ms",
    "state_games.adversary_ms": "ms",
    "mc_sim.simulate_ms": "ms",
    "mc_sim.rounds_per_ms": "rounds/ms",
    "classical.feasible_ms": "ms",
    "classical.infeasible_ms": "ms",
    "classical.lp_vars": "count",
    "classical.witnesses_found": "count",
    "state_games.embedded_ms": "ms",
}

LOCAL_SLICES = 15  # latency ratios use the mean of the 2 * 15 + 1 slices around each operation

COUNTED = ("channels.kraus_ops", "optim.restarts", "classical.lp_vars", "classical.witnesses_found")


def process_age_s(fallback_start: float) -> float:
    """Seconds since this process started, from /proc where it exists."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - fallback_start


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def local_means(vals, k: int) -> list[float]:
    """Mean of vals[i-k .. i+k] for every i, the window cut short at both ends."""
    csum = [0.0]
    for v in vals:
        csum.append(csum[-1] + v)
    n = len(vals)
    return [(csum[min(n, i + k + 1)] - csum[max(0, i - k)]) / (min(n, i + k + 1) - max(0, i - k)) for i in range(n)]


def quantile(sorted_vals, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    pos = q * (len(sorted_vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


class Loop:
    """Closed loop over whole rounds of the workload's operations."""

    def __init__(self, ops, tracer, ref):
        self.ops = ops
        self.tracer = tracer
        self.ref = ref
        self.op_times: list[float] = []
        self.op_slice: list[int] = []  # index of the slice timed right after each successful request
        self.ref_times: list[float] = []
        self.kinds: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []    # outputs that failed a check
        self.failures: list[str] = []  # requests that raised

    def round(self) -> None:
        tr = self.tracer
        for op in self.ops:
            tr.begin_op(self.attempted, op.kind)
            t0 = time.perf_counter()
            try:
                out = op.run(tr)
            except Exception as exc:  # a failed request is counted, the loop goes on
                out = exc
            t1 = time.perf_counter()
            tr.end_op()
            self.attempted += 1
            if isinstance(out, Exception):
                self.failed += 1
                self.failures.append(f"{op.kind}: {type(out).__name__}: {out}")
            else:
                self.op_times.append(t1 - t0)
                self.op_slice.append(len(self.ref_times))
                self.kinds.append(op.kind)
                self.errors += [f"{op.kind}: {e}" for e in op.check(out)]
            self.ref_times.append(self.ref.timed())

    def run_for(self, seconds: float) -> float:
        start = time.perf_counter()
        while True:
            self.round()
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                return elapsed


def layer_metrics(tracer, layers: dict) -> dict:
    timed = tracer.totals_ms("timed")
    m = {name: 0.0 for name in PER_LAYER}
    for name, keys in layers.items():
        m[name] = sum(timed[k] for k in keys)
    m["linalg.density_ms"] = tracer.totals_ms("setup")["linalg.density"]
    m["entropy.dual_calls"] = timed["#entropy.dual_cond_entropy"]
    for name in COUNTED:
        m[name] = tracer.counts[name]
    restarts = tracer.counts["channel_games.restarts"]
    m["channel_games.ms_per_restart"] = m["channel_games.reward_ms"] / restarts if restarts else 0.0
    sim_ms = m["mc_sim.simulate_ms"]
    m["mc_sim.rounds_per_ms"] = tracer.counts["mc_sim.rounds"] / sim_ms if sim_ms else 0.0
    return {k: float(v) for k, v in m.items()}


def versions() -> str:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_txt = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_txt = "unknown"
    return f"python {sys.version.split()[0]}, numpy {numpy.__version__}, scipy {scipy.__version__}, blas {blas_txt}"


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "qce" / "__init__.py").is_file():
        print(f"qce sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))

    from refkernel import RefSlice
    from spans import NullTracer, Tracer

    tracer = Tracer() if args.trace else NullTracer()
    workload = importlib.import_module(WORKLOADS[args.workload])  # imports qce
    ops = workload.build(args.seed, tracer)
    setup_s = process_age_s(t_start)

    ref = RefSlice()
    tracer.phase = "warmup"
    warm = Loop(ops, tracer, ref)
    warm.round()

    tracer.phase = "timed"
    loop = Loop(ops, tracer, ref)
    wall = loop.run_for(args.seconds)
    tracer.phase = "done"

    times = sorted(loop.op_times)
    if not times:
        print(f"every request failed; first: {loop.failures[0]}", file=sys.stderr)
        return 1
    ref_s = sum(loop.ref_times) / len(loop.ref_times)
    local = local_means(loop.ref_times, LOCAL_SLICES)
    ratios = sorted(t / local[i] for t, i in zip(loop.op_times, loop.op_slice))
    busy = sum(times)
    e2e = {
        "ops_per_ref": len(times) / (busy / ref_s),
        "latency_p50_ref": quantile(ratios, 0.5),
        "latency_p90_ref": quantile(ratios, 0.9),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    n_ref = len(loop.ref_times)
    chunks = [sorted(loop.ref_times[i * n_ref // 10:(i + 1) * n_ref // 10]) for i in range(10)]
    chunk_ms = [1e3 * c[len(c) // 2] for c in chunks if c]  # median slice time of each tenth of the run
    raw = {
        "ops": len(times),
        "rounds": loop.attempted // len(ops),
        "wall_s": wall,
        "ops_per_s": len(times) / busy,
        "p50_ms": 1e3 * quantile(times, 0.5),
        "p90_ms": 1e3 * quantile(times, 0.9),
        "ref_ms": 1e3 * ref_s,
        "ref_chunk_median_ms_min": min(chunk_ms),
        "ref_chunk_median_ms_max": max(chunk_ms),
    }
    by_kind: dict = {}
    for kind, t in zip(loop.kinds, loop.op_times):
        by_kind.setdefault(kind, []).append(t)
    kind_ms = {k: 1e3 * quantile(sorted(v), 0.5) for k, v in by_kind.items()}

    errors = warm.errors + loop.errors
    correct = not errors
    if args.trace:
        metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in layer_metrics(tracer, workload.LAYERS).items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {versions()}", file=sys.stderr)
    print(f"# raw: {json.dumps(raw)}", file=sys.stderr)
    print(f"# end-to-end: {json.dumps(e2e)}", file=sys.stderr)
    for e in errors[:20]:
        print(f"# wrong output: {e}", file=sys.stderr)
    for e in loop.failures[:20]:
        print(f"# failed request: {e}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"result-{stem}.json", "w") as fh:
        json.dump({"end_to_end": e2e, "raw": raw, "op_kind_p50_ms": kind_ms, "metrics": metrics,
                   "errors": errors[:200], "failures": loop.failures[:200], "versions": versions(),
                   "op_s": loop.op_times, "op_kinds": loop.kinds, "ref_s": loop.ref_times}, fh)
    if args.trace:
        tracer.write(OUT / f"trace-{stem}.json")

    result = {"correct": correct, "attempted": loop.attempted, "failed": loop.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
