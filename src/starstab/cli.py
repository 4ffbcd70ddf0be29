"""Command-line front end.

Subcommands: budget, recover, sweep, kk, tower.  Every subcommand accepts
--config (key = value file), --seed, --out (CSV path) and --json
(machine-readable report on stdout).  Exit codes: 0 all assertions passed,
1 an assertion failed, 2 a pipeline stage aborted or the input was
malformed (a bad flag value or an unreadable config file).
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .algebra import AlgebraShape
from .config import PipelineConfig, load_config
from .errors import StabilityError, StageAbort
from .experiments import (SweepRow, kk_experiment, run_sweep, sweep_csv,
                          tower_experiment)
from .factory import (EmbeddingSpec, InclusionSpec, exact_homomorphism,
                      haar_conjugator, near_identity, perturb_additive,
                      perturb_conjugate)
from .pipeline import K, compute_budget, run_pipeline

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_ABORT = 2


def _converter(parse, what: str):
    """An argparse ``type=`` that reports a malformed value in one line."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}") from exc
    return convert


_shape = _converter(AlgebraShape.parse, "a block shape such as 2 or 1+2")
_ints = _converter(lambda text: tuple(int(t) for t in text.split(",") if t), "a list of integers")
_floats = _converter(lambda text: tuple(float(t) for t in text.split(",")), "a list of numbers")


def _at_least_one(text: str) -> int:
    n = int(text)
    if n < 1:
        raise ValueError(text)
    return n


_count = _converter(_at_least_one, "a positive integer")


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", type=str, default=None, help="key = value config file")
    p.add_argument("--seed", type=int, default=None, help="64-bit experiment seed")
    p.add_argument("--out", type=str, default=None, help="CSV output path")
    p.add_argument("--json", action="store_true", help="JSON report on stdout")


def _load(args) -> PipelineConfig:
    cfg = PipelineConfig()
    if args.config:
        cfg = load_config(args.config, cfg)
    if args.seed is not None:
        cfg = cfg.replace(seed=args.seed)
    return cfg


def _emit(args, payload: dict, text_lines):
    if args.json:
        print(json.dumps(payload))
    else:
        for line in text_lines:
            print(line)


def _write_rows(path: str, rows):
    Path(path).write_text(sweep_csv(rows), encoding="utf-8")


def _build_instance(args, cfg: PipelineConfig):
    shape = args.shape
    mults = args.mult or tuple(1 for _ in shape.blocks)
    n = args.pad + sum(m * nb for m, nb in zip(mults, shape.blocks))
    w = haar_conjugator(n, cfg.seed) if args.rotate else None
    spec = EmbeddingSpec(shape, mults, args.pad, w)
    psi0 = exact_homomorphism(spec)
    if args.kind == "additive":
        phi = perturb_additive(psi0, args.eta, seed=cfg.seed)
    else:
        phi = perturb_conjugate(psi0, near_identity(n, args.eta, seed=cfg.seed))
    return spec, psi0, phi


def cmd_budget(args) -> int:
    _load(args)                     # a bad --config exits 2 here too
    budget = compute_budget(args.eps, args.K)
    d = budget.to_dict()
    if args.out:
        Path(args.out).write_text(json.dumps(d) + "\n", encoding="utf-8")
    _emit(args, d, [f"{key} = {val:.6e}" for key, val in d.items()])
    return EXIT_OK


def cmd_recover(args) -> int:
    cfg = _load(args)
    spec, psi0, phi = _build_instance(args, cfg)
    t0 = time.perf_counter()
    psi, rep = run_pipeline(phi, cfg)
    dt = time.perf_counter() - t0
    eps = rep.input_defect["epsilon"]
    label = args.shape.label()
    row = SweepRow(f"recover-{label}-eta{args.eta:g}", label, phi.dim,
                   args.eta, eps, rep.final_distance, dt)
    if args.out:
        _write_rows(args.out, [row])
    _emit(args, rep.to_dict(), [
        f"shape {label} N={phi.dim} eta={args.eta:g} ({args.kind})",
        f"measured defect: {eps:.3e}",
        f"final distance:  {rep.final_distance:.3e} "
        f"(distance/sqrt(eps) = {rep.distance_over_sqrt_eps:.3f})",
        *(f"[{'PASS' if a['ok'] else 'FAIL'}] {a['name']}: "
          f"{a['value']:.3e} <= {a['bound']:.3e}" for a in rep.assertions),
    ])
    return EXIT_OK if rep.ok() else EXIT_ASSERTION


def cmd_sweep(args) -> int:
    cfg = _load(args)
    rows, details = run_sweep(list(args.etas), args.repeats, cfg)
    if args.out:
        _write_rows(args.out, rows)
    ok = all(d["report"].ok() for d in details.values())
    payload = {"rows": [r.csv_values() for r in rows], "ok": ok}
    _emit(args, payload, [
        f"{r.experiment_id}: dist {r.final_distance:.3e} "
        f"ratio_linear {r.ratio_linear:.2f}" for r in rows])
    return EXIT_OK if ok else EXIT_ASSERTION


def cmd_kk(args) -> int:
    cfg = _load(args)
    shape = args.shape
    mults = args.mult or tuple(1 for _ in shape.blocks)
    n = sum(m * nb for m, nb in zip(mults, shape.blocks))
    w = haar_conjugator(n, cfg.seed) if args.rotate else None
    spec = EmbeddingSpec(shape, mults, 0, w)
    t0 = time.perf_counter()
    rep = kk_experiment(spec, args.eta, cfg, delta=args.delta)
    dt = time.perf_counter() - t0
    if args.out:
        row = SweepRow(f"kk-{shape.label()}-eta{args.eta:g}", shape.label(), n,
                       args.eta, rep.phi_defect["epsilon"], rep.recovered_distance, dt)
        _write_rows(args.out, [row])
    _emit(args, rep.to_dict(), [
        f"distance bracket: [{rep.estimate.lower:.3e}, {rep.estimate.upper:.3e}]",
        f"nearest-point map defect: {rep.phi_defect['epsilon']:.3e}",
        f"recovered isomorphism vs identity: {rep.recovered_distance:.3e}",
        *(f"[{'PASS' if a['ok'] else 'FAIL'}] {a['name']}: "
          f"{a['value']:.3e} <= {a['bound']:.3e}" for a in rep.assertions),
    ])
    return EXIT_OK if rep.ok() else EXIT_ASSERTION


def cmd_tower(args) -> int:
    cfg = _load(args)
    incs = []
    shape = args.start
    for step in args.steps:
        inc = InclusionSpec.single(shape, step)
        incs.append(inc)
        shape = inc.target
    rep = tower_experiment(incs, args.eta, cfg)
    if args.out:
        ambient = shape.blockdiag_dim   # every floor lands in the top algebra
        # a floor's seconds are its pipeline stages' summed wall clocks
        rows = [SweepRow(f"tower-{i:02d}-{s.shape}", s.shape, ambient,
                         args.eta, s.report.input_defect["epsilon"], s.distance,
                         sum(st.seconds for st in s.report.stages))
                for i, s in enumerate(rep.stages)]
        _write_rows(args.out, rows)
    _emit(args, rep.to_dict(), [
        *(f"floor {s.index} ({s.shape}): distance {s.distance:.3e}"
          + (f", ratio {s.ratio:.2f}" if s.ratio is not None else "")
          for s in rep.stages),
        *(f"[{'PASS' if a['ok'] else 'FAIL'}] {a['name']}: "
          f"{a['value']:.3e} <= {a['bound']:.3e}" for a in rep.assertions),
    ])
    return EXIT_OK if rep.ok() else EXIT_ASSERTION


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="starstab",
                                 description="stabilize approximate *-homomorphisms "
                                             "between finite-dimensional C*-algebras")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("budget", help="evaluate the error-budget chain")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--K", type=float, default=K)
    _add_common(p)
    p.set_defaults(fn=cmd_budget)

    p = sub.add_parser("recover", help="run the pipeline on one perturbed instance")
    p.add_argument("--shape", type=_shape, default="2")
    p.add_argument("--mult", type=_ints, default="")
    p.add_argument("--pad", type=int, default=0)
    p.add_argument("--eta", type=float, default=1e-3)
    p.add_argument("--kind", choices=("additive", "conjugate"), default="additive")
    p.add_argument("--rotate", action="store_true",
                   help="conjugate the embedding by a random unitary")
    _add_common(p)
    p.set_defaults(fn=cmd_recover)

    p = sub.add_parser("sweep", help="recovery sweep over shapes and etas")
    p.add_argument("--etas", type=_floats, default="1e-3,1e-2")
    p.add_argument("--repeats", type=_count, default=5)
    _add_common(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("kk", help="close-subalgebra comparison experiment")
    p.add_argument("--shape", type=_shape, default="2")
    p.add_argument("--mult", type=_ints, default="2")
    p.add_argument("--eta", type=float, default=1e-3)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--rotate", action="store_true")
    _add_common(p)
    p.set_defaults(fn=cmd_kk)

    p = sub.add_parser("tower", help="finite tower uniformity experiment")
    p.add_argument("--start", type=_shape, default="2")
    p.add_argument("--steps", type=_ints, default="2,2")
    p.add_argument("--eta", type=float, default=1e-3)
    _add_common(p)
    p.set_defaults(fn=cmd_tower)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except StageAbort as exc:
        completed = [s.name for s in (exc.report or [])]
        print(f"abort in stage '{exc.stage}': {exc.cause}", file=sys.stderr)
        print(f"completed stages: {completed}", file=sys.stderr)
        return EXIT_ABORT
    except StabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ABORT


if __name__ == "__main__":
    sys.exit(main())
