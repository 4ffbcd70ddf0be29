#!/usr/bin/env python3
"""Input-map rows and batches per pipeline stage of every benchmark instance.

    python3 tools/rows.py [--root CHECKOUT] [--against BASE.json]

Runs every instance of the four ``perfbench`` workloads once at seeds 1
and 2, with ``perfbench/workloads.py``'s ``build`` and ``prepare`` as they
are, and prints one JSON object
``{"workload/seed/label": {stage: [rows, batches]}}``.  The input map of a
``run_pipeline`` call is the map it was given; each read of it adds its
rows and one batch to the step of ``pipeline._STEPS`` that is running, or
to ``unstaged`` outside every step (the admissibility estimate, and an
experiment's own reads of its input).  A read is a call of
``ApproxMap.evaluate``, the entry that the checked ``batch`` and a
wrapper's unchecked read share, so each read counts once either way; on a
tree whose ``ApproxMap`` has no ``evaluate``, it is a ``batch`` call.  A
tower counts every floor's input map.  Stages that read no row are left
out.  The package and the workloads are imported from ``--root``
(default: this checkout), so two checkouts, such as a base commit and its
change, compare key by key.  ``--against`` reads such an output and
prints to stderr each count that changed against it; a change is
reported, not failed on.  Rows per op of each workload and stage are
summarized on stderr.  BLAS threads are fixed as in ``perfbench/run.py``.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from collections import defaultdict
from pathlib import Path

UNSTAGED = "unstaged"


def count_rows(pipeline, approx_map, call):
    """Run ``call()`` and return {stage: [rows, batches]} of the input maps
    of the ``run_pipeline`` calls it makes."""
    counts = defaultdict(lambda: [0, 0])
    inputs, stage = [], [UNSTAGED]
    entry = "evaluate" if hasattr(approx_map, "evaluate") else "batch"
    init, read, steps = pipeline._Run.__init__, getattr(approx_map, entry), dict(pipeline._STEPS)

    def register(run, phi, *args, **kwargs):
        inputs.append(phi)
        init(run, phi, *args, **kwargs)

    def counted(m, stack):
        if any(m is phi for phi in inputs):
            count = counts[stage[-1]]
            count[0] += len(stack[0])
            count[1] += 1
        return read(m, stack)

    def staged(name, step):
        def run_step(run):
            stage.append(name)
            try:
                return step(run)
            finally:
                stage.pop()
        return run_step

    pipeline._Run.__init__ = register
    setattr(approx_map, entry, counted)
    pipeline._STEPS.update({name: staged(name, step) for name, step in steps.items()})
    try:
        call()
    finally:
        pipeline._Run.__init__ = init
        setattr(approx_map, entry, read)
        pipeline._STEPS.update(steps)
    order = [UNSTAGED, *steps]
    return {name: counts[name] for name in order if name in counts}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    p.add_argument("--against", type=Path, metavar="BASE.json",
                   help="an earlier output of this script to compare the counts with")
    args = p.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import run          # perfbench's runner: its thread settings, set before numpy loads
    for var in run.THREAD_VARS:
        os.environ[var] = str(run.BLAS_THREADS)
    import workloads
    from starstab import pipeline
    from starstab.defects import ApproxMap

    rows, per_op = {}, {}
    for name, workload in workloads.WORKLOADS.items():
        ops, totals = 0, defaultdict(int)
        for seed in (1, 2):
            for inst in workload.build(seed):
                key = f"{name}/{seed}/{inst.label}"
                rows[key] = count_rows(pipeline, ApproxMap, inst.prepare().call)
                ops += 1
                for stage, (count, _) in rows[key].items():
                    totals[stage] += count
        per_op[name] = {stage: count / ops for stage, count in totals.items()}
    print(json.dumps(rows, indent=1, sort_keys=True))
    for name, stages in per_op.items():
        text = ", ".join(f"{stage} {count:g}" for stage, count in stages.items())
        print(f"{name}: input rows per op: {text}", file=sys.stderr)
    if args.against is not None:
        base = json.loads(args.against.read_text())
        changed = []
        for key in sorted(base.keys() | rows.keys()):
            was, now = base.get(key, {}), rows.get(key, {})
            changed += [f"  changed: {key} {stage}: {was.get(stage, [0, 0])} -> "
                        f"{now.get(stage, [0, 0])} [rows, batches]"
                        for stage in dict.fromkeys([*was, *now])
                        if was.get(stage) != now.get(stage)]
        print(f"{len(changed)} counts changed", file=sys.stderr)
        for line in changed:
            print(line, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
