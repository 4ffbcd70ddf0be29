#!/usr/bin/env python3
"""Timing-free report digests of every benchmark instance.

    python3 tools/digests.py [--root CHECKOUT] [--against BASE.json]

Runs every instance of the four ``perfbench`` workloads once at seeds 1
and 2, with ``perfbench/workloads.py``'s ``build``, ``prepare`` and
``check`` as they are, and prints one JSON object ``{"workload/seed/label": digest}``.  The
package and the workloads are imported from ``--root`` (default: this
checkout), so the script can digest another checkout of the repository,
such as a base commit, and two outputs compare key by key.  ``--against``
reads such an output and prints to stderr how many digests changed
against it and the label of each.  Each workload's distance / eta values
(the checks' ratios, over both seeds) are summarized on stderr by their
count, mean and max, so that two trees' accuracy compares from the same
command even where digests move.  It exits with code 1 when a check
reports a problem, whatever changed; an op that raises ends the script
with the exception.  BLAS threads are fixed as in ``perfbench/run.py``.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    p.add_argument("--against", type=Path, metavar="BASE.json",
                   help="an earlier output of this script to compare the digests with")
    args = p.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import run          # perfbench's runner: its thread settings, set before numpy loads
    for var in run.THREAD_VARS:
        os.environ[var] = str(run.BLAS_THREADS)
    import workloads

    digests, problems, ratios = {}, [], {}
    for name, workload in workloads.WORKLOADS.items():
        for seed in (1, 2):
            for inst in workload.build(seed):
                key = f"{name}/{seed}/{inst.label}"
                outcome = inst.check(inst.prepare().call())
                digests[key] = outcome.digest
                problems += [f"{key}: {text}" for text in outcome.problems]
                ratios.setdefault(name, []).extend(outcome.ratios)
    print(json.dumps(digests, indent=1, sort_keys=True))
    for name, values in ratios.items():   # eta = 0 workloads have none
        summary = f", mean {sum(values) / len(values):.17g}, max {max(values):.17g}" \
            if values else ""
        print(f"{name}: distance/eta over {len(values)} values{summary}", file=sys.stderr)
    if args.against is not None:
        base = json.loads(args.against.read_text())
        labels = base.keys() | digests.keys()
        changed = sorted(k for k in labels if base.get(k) != digests.get(k))
        print(f"{len(changed)} of {len(labels)} digests changed", file=sys.stderr)
        for label in changed:
            print(f"  changed: {label}", file=sys.stderr)
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
