#!/usr/bin/env python3
"""starstab benchmark: closed-loop recovery workloads with checked outputs.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 24 --trace 0

Run from (or with) a source checkout: the package is imported from ``src``.
One caller runs operations back to back (a closed loop with one client); an
operation is one call of the public function named for the workload (see
``workloads.py`` and ``README.md``).  The loop runs for about ``--seconds``
(it starts no op that would end more than half an op past the deadline) and
at least until every instance of the workload has run once.  BLAS and OpenMP
threads are fixed at ``BLAS_THREADS`` before numpy is imported.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs the
tracer (``tracer.py``) and prints the per-layer metrics instead.  Untraced
runs interleave a fixed reference kernel (``reference.py``) with the ops and
report the JSON op times in reference seconds, so that the machine's slow and
fast spells cancel; the wall-time figures are printed too.  Human
readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every result is checked (``workloads.py``) and its timing-free report is
digested with SHA-256.  Digests are kept per source tree, workload, seed and
instance in ``.perfbench_state/`` of the checkout, so a later run of the same
code (traced or not) that produces a different report is flagged and
reported as incorrect.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".perfbench_state"
STATE_FILE = STATE_DIR / "state.json"

BLAS_THREADS = 1      # fixed, and at most nproc, so runs compare across machines
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 5     # set-ups per run; setup_s is their median
OVERRUN_CAP_S = 100   # never start an op later than this past --seconds
TAIL_BEYOND = 10      # a tail percentile needs this many samples beyond it


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: import, build the inputs, print their digest, exit")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


# -- set-up ----------------------------------------------------------------

def build_inputs(name, seed):
    """Build the workload's inputs (with the imports, the timed set-up)."""
    import workloads
    instances = workloads.WORKLOADS[name].build(seed)
    first = [inst.prepare() for inst in instances]
    digest = hashlib.sha256("".join(op.fingerprint for op in first).encode()).hexdigest()
    return instances, first, digest


def time_setup(args):
    """Wall time from spawning a fresh interpreter until it has built the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or not line.strip():
        raise RuntimeError(f"set-up probe exited with code {code}")
    return elapsed, line.strip()


# -- machine and code identity ----------------------------------------------------

def source_hash():
    h = hashlib.sha256()
    for path in sorted([*(SRC / "starstab").glob("*.py"), *BENCH_DIR.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def machine(args, src_hash):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(),
        "source_sha256": src_hash,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- state kept between runs in the checkout -----------------------------------------

def load_state():
    try:
        return json.loads(STATE_FILE.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        return {}


def save_state(state):
    STATE_DIR.mkdir(exist_ok=True)
    tmp = STATE_FILE.with_suffix(".tmp")
    tmp.write_text(json.dumps(state, indent=1, sort_keys=True))
    os.replace(tmp, STATE_FILE)


# -- statistics ---------------------------------------------------------------------

def balanced_median(times):
    """Median over every op, each instance weighted equally (1/its op count).

    The loop's deadline cuts the instance cycle at a different place in each
    run; weighting keeps the instance mix fixed while still using every op.
    """
    points = sorted((t, 1.0 / len(ts)) for ts in times for t in ts)
    half = sum(w for _, w in points) / 2.0
    acc = 0.0
    for k, (t, w) in enumerate(points):
        acc += w
        if acc > half + 1e-9:
            return t
        if acc > half - 1e-9:          # exactly half the weight: average the two sides
            return (t + points[k + 1][0]) / 2.0 if k + 1 < len(points) else t
    return points[-1][0]


def tail(values):
    """Highest percentile with at least TAIL_BEYOND samples beyond it, or None."""
    n = len(values)
    rank = n - TAIL_BEYOND           # 1-based rank of the tail sample
    if rank < math.ceil(n / 2):
        return None
    return 100.0 * rank / n, sorted(values)[rank - 1]


# -- the run -------------------------------------------------------------------------

def run_loop(args, instances, first, tracer, reference):
    """Closed loop, one caller; returns per-instance op times, outcomes and errors.

    With a ``reference``, a slice of its kernel runs before each op and after
    the last one (see ``reference.py``).
    """
    from starstab.errors import StabilityError
    n = len(instances)
    times = [[] for _ in range(n)]
    outcomes = [[] for _ in range(n)]
    errors = []
    pending = first               # emptied as ops run, so used inputs can be freed
    start = time.perf_counter()
    k = 0
    wall = 0.0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds + OVERRUN_CAP_S:
            break
        if k >= n:
            # stop at the deadline, or earlier when the next op would overrun it
            # by more than half an op: runs then last about --seconds
            typical = statistics.median(t for ts in times for t in ts)
            if elapsed + typical / 2 >= args.seconds:
                break
        i = k % n
        if k < n:
            op, pending[i] = pending[i], None
        else:
            op = instances[i].prepare()
        if reference is not None:
            reference.slice(wall)
        if tracer is not None:
            tracer.begin_op(k, op.inputs)
        t0 = time.perf_counter()
        try:
            result, error = op.call(), None
        except StabilityError as exc:
            result, error = None, f"{type(exc).__name__}: {exc}"
        except Exception as exc:     # op boundary: record, report and keep running
            traceback.print_exc(file=sys.stderr)
            result, error = None, f"unexpected {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op(wall)
        times[i].append(wall)
        if error is None:
            outcomes[i].append(instances[i].check(result))
        else:
            errors.append(f"op {k} ({instances[i].label}): {error}")
        del op, result
        gc.collect()              # free cyclic garbage so peak RSS is one op's, not the run's
        k += 1
    if reference is not None:
        reference.slice(wall)
    return times, outcomes, errors, time.perf_counter() - start


def check_digests(args, instances, outcomes, src_hash, state):
    """Compare digests within the run and with earlier runs of the same code."""
    known = state.setdefault("digests", {}).setdefault(src_hash, {}) \
        .setdefault(args.workload, {}).setdefault(str(args.seed), {})
    problems = []
    matched = 0
    for inst, outs in zip(instances, outcomes):
        for out in outs:
            prev = known.get(inst.label)
            if prev is None:
                known[inst.label] = out.digest
            elif prev != out.digest:
                problems.append(f"digest mismatch on {inst.label}: {out.digest[:16]} "
                                f"vs {prev[:16]} from an earlier op or run of this code")
            else:
                matched += 1
    return problems, matched


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "starstab" / "__init__.py").is_file():
        print(f"perfbench: no starstab sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    if args.setup_probe:
        _, _, digest = build_inputs(args.workload, args.seed)
        print(digest, flush=True)
        return 0

    setups = [time_setup(args) for _ in range(SETUP_SAMPLES)] if args.trace == 0 else []

    tracer = reference = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer().install()
    else:
        from reference import Reference
        reference = Reference()
    instances, first, input_digest = build_inputs(args.workload, args.seed)
    workload = workloads.WORKLOADS[args.workload]

    times, outcomes, errors, loop_wall = run_loop(args, instances, first, tracer,
                                                       reference)
    if tracer is not None:
        tracer.close()

    src_hash = source_hash()
    state = load_state()
    problems = [f"set-up probe built different inputs ({d[:16]} vs {input_digest[:16]})"
                for _, d in setups if d != input_digest]
    digest_problems, matched = check_digests(args, instances, outcomes, src_hash, state)
    problems += digest_problems

    attempted = sum(len(t) for t in times)
    failed = len(errors)
    for inst, outs in zip(instances, outcomes):
        for out in outs:
            if out.problems:
                failed += 1
                errors.append(f"{inst.label}: " + "; ".join(out.problems))
    per_instance = [statistics.fmean(t) for t in times if t]
    op_p50 = balanced_median([t for t in times if t])
    ops_per_s = len(per_instance) / sum(per_instance)
    all_times = [t for ts in times for t in ts]
    ratios = [r for outs in outcomes for out in outs[:1] for r in out.ratios]

    print(f"perfbench {args.workload}: {workload.why}")
    print(f"  bypasses: {workload.bypasses}")
    print("machine " + json.dumps(machine(args, src_hash), sort_keys=True))
    print(f"ops: {attempted} attempted, {failed} failed, "
          f"{len(per_instance)}/{len(instances)} instances covered, loop {loop_wall:.2f} s")
    for line in errors[:20]:
        print(f"  FAILED {line}")
    for line in problems:
        print(f"  CHECK {line}")

    if tracer is None:
        setup_s = statistics.median(s for s, _ in setups)
        speed = reference.speed()
        metrics = {
            "ref_op_s.p50": (op_p50 * speed, "s"),
            "ref_ops_per_s": (ops_per_s / speed, "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        for name, (value, unit) in metrics.items():
            print(f"  {name} = {value:.6g} {unit}")
        print(f"  op_s.p50 = {op_p50:.6g} s")
        print(f"  ops_per_s = {ops_per_s:.6g} 1/s")
        print("    op_s.p50 is the median over all ops, each instance weighted equally; "
              "ops_per_s is instances / sum of the per-instance mean op times")
        print(f"    machine speed = {speed:.6g} (reference kernel: {reference.units} units "
              f"in {reference.seconds:.3f} s); ref_* are the wall-time figures scaled to "
              "reference seconds")
        print("    setup_s samples: " + ", ".join(f"{s:.4f}" for s, _ in setups))
        t = tail(all_times)
        if t is None:
            print(f"  op_s.tail: none ({len(all_times)} ops; a percentile needs "
                  f"{TAIL_BEYOND} samples beyond it)")
        else:
            print(f"  op_s.tail = {t[1]:.6g} s at p{t[0]:.1f} ({len(all_times)} ops, "
                  f"{TAIL_BEYOND} beyond)")
        print(f"  failed_frac = {failed / attempted:.6g} ({failed}/{attempted})")
        if ratios:
            print(f"  dist_over_eta.p50 = {statistics.median(ratios):.6g}, "
                  f"dist_over_eta.max = {max(ratios):.6g} (over {len(ratios)} values, "
                  "one op per instance)")
        else:
            print("  dist_over_eta: not defined (eta = 0)")
        state.setdefault("ops_per_s", {}).setdefault(src_hash, {}) \
            .setdefault(args.workload, {})[str(args.seed)] = ops_per_s
    else:
        metrics = tracer.metrics()
        metrics["trace.ops_per_s"] = (ops_per_s, "1/s")
        for name, (value, unit) in metrics.items():
            print(f"  {name} = {value:.6g} {unit}")
        for name, secs in tracer.unknown_stages().items():
            print(f"  (stage not in the metric list) {name} = {secs:.6g} s")
        self_sum = sum(v for k, (v, _) in metrics.items()
                       if k.endswith("self_s") or k == "unattributed_s")
        print(f"  self times + unattributed_s = {self_sum:.6f} s; op wall = "
              f"{tracer.op_wall:.6f} s")
        untraced = state.get("ops_per_s", {}).get(src_hash, {}).get(args.workload, {}) \
            .get(str(args.seed))
        if untraced:
            print(f"  tracing overhead: {ops_per_s:.6g} ops/s traced vs {untraced:.6g} "
                  f"untraced ({untraced / ops_per_s - 1.0:+.1%} time per op)")
        else:
            print("  tracing overhead: no untraced run of this code, workload and seed yet")
        tracer.write_spans(STATE_DIR / "spans" / f"{args.workload}-seed{args.seed}.jsonl")
    firsts = [f"{inst.label}:{outs[0].digest}" for inst, outs in zip(instances, outcomes) if outs]
    print(f"  digest: sha256 {hashlib.sha256(' '.join(firsts).encode()).hexdigest()} over "
          f"{len(firsts)} instances; {sum(map(len, outcomes))} checked results, "
          f"{matched} matched an earlier result of this code")
    save_state(state)

    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
