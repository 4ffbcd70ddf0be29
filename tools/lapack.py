#!/usr/bin/env python3
"""Matrices sent to LAPACK per calling function of every benchmark instance.

    python3 tools/lapack.py [--root CHECKOUT] [--against BASE.json]

Runs every instance of the four ``perfbench`` workloads once at seeds 1
and 2, with ``perfbench/workloads.py``'s ``build`` and ``prepare`` as they
are, and prints one JSON object
``{"workload/seed/label": {"routine caller": [matrices, calls]}}``.  Each
call of ``np.linalg.svd``, ``eigvalsh``, ``eigh`` or ``inv`` adds one call
and the number of matrices it receives (1 for a matrix, the stack's length
for a stack) to its routine and to the function that called it, named by
module and qualified name.  Calls made inside numpy are not counted.  The
package and the workloads are imported from ``--root`` (default: this
checkout), so two checkouts, such as a base commit and its change, compare
key by key.  ``--against`` reads such an output and prints to stderr each
count that changed against it; a change is reported, not failed on.
Matrices per op of each workload, routine and caller are summarized on
stderr.  BLAS threads are fixed as in ``perfbench/run.py``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import defaultdict
from pathlib import Path

ROUTINES = ("svd", "eigvalsh", "eigh", "inv")


def count_matrices(linalg, call):
    """Run ``call()`` and return {"routine caller": [matrices, calls]} of the
    ``ROUTINES`` of the module ``linalg`` (``np.linalg``) that it calls."""
    counts = defaultdict(lambda: [0, 0])
    saved = {name: getattr(linalg, name) for name in ROUTINES}

    def counted(name, routine):
        def wrapper(a, *args, **kwargs):
            frame = sys._getframe(1)
            caller = f"{frame.f_globals.get('__name__')}.{frame.f_code.co_qualname}"
            count = counts[f"{name} {caller}"]
            count[0] += math.prod(a.shape[:-2])
            count[1] += 1
            return routine(a, *args, **kwargs)
        return wrapper

    for name, routine in saved.items():
        setattr(linalg, name, counted(name, routine))
    try:
        call()
    finally:
        for name, routine in saved.items():
            setattr(linalg, name, routine)
    return {key: counts[key] for key in sorted(counts)}


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
    import numpy as np
    import workloads

    counts, per_op = {}, {}
    for name, workload in workloads.WORKLOADS.items():
        ops, totals = 0, defaultdict(int)
        for seed in (1, 2):
            for inst in workload.build(seed):
                key = f"{name}/{seed}/{inst.label}"
                counts[key] = count_matrices(np.linalg, inst.prepare().call)
                ops += 1
                for routine, (matrices, _) in counts[key].items():
                    totals[routine] += matrices
        per_op[name] = {routine: count / ops for routine, count in sorted(totals.items())}
    print(json.dumps(counts, indent=1, sort_keys=True))
    for name, routines in per_op.items():
        print(f"{name}: matrices per op:", file=sys.stderr)
        for routine in ROUTINES:
            total = sum(v for k, v in routines.items() if k.split()[0] == routine)
            print(f"  {routine} {total:g}", file=sys.stderr)
            for key, count in routines.items():
                if key.split()[0] == routine:
                    print(f"    {key.split()[1]} {count:g}", file=sys.stderr)
    if args.against is not None:
        base = json.loads(args.against.read_text())
        changed = []
        for key in sorted(base.keys() | counts.keys()):
            was, now = base.get(key, {}), counts.get(key, {})
            changed += [f"  changed: {key} {routine}: {was.get(routine, [0, 0])} -> "
                        f"{now.get(routine, [0, 0])} [matrices, calls]"
                        for routine in sorted(was.keys() | now.keys())
                        if was.get(routine) != now.get(routine)]
        print(f"{len(changed)} counts changed", file=sys.stderr)
        for line in changed:
            print(line, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
