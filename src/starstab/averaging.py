"""Averaging over the unitary group: quadratic contraction of the
multiplicativity defect.

One pass replaces rho by u -> mean_j rho(x_j)^{-1} rho(x_j u) over a fixed,
seeded Haar sample set (common random numbers per level).  For the true
group integral the defect contracts quadratically; with Monte-Carlo
sampling every asserted bound carries an explicit statistical error term
mc = 3 x the standard error across independent sample batches, plus a
machine-precision floor.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _linalg as la
from .algebra import HaarSampler, _derive_seed
from .defects import ApproxMap
from .errors import ContractionError, PreconditionError

NUMERIC_FLOOR = 1e-12
SCHEDULE_EPS_MAX = 2.0 ** -10
# independent sample batches behind every 3-sigma Monte-Carlo error term
BATCHES = 8


@dataclass(frozen=True)
class IterationSchedule:
    """The level sequences (kappa_n, delta_n) grown from delta_0 = eps1,
    kappa_0 = 2 by delta' = 2 k^2 d^2, kappa' = k / (1 - k^2 d)."""

    eps1: float
    kappas: tuple[float, ...]
    deltas: tuple[float, ...]

    @property
    def levels(self):
        return list(zip(self.kappas, self.deltas))

    def movement_budget(self) -> float:
        return sum(k * d for k, d in zip(self.kappas, self.deltas))


def schedule(eps1: float, n_max: int) -> IterationSchedule:
    """Compute the sequences up to level n_max and check the contraction
    claims: kappa stays below 4, increments halve, delta decays doubly
    exponentially and the movement series stays below 8 eps1."""
    if not 0.0 < eps1 <= SCHEDULE_EPS_MAX:
        raise PreconditionError(
            f"schedule requires 0 < eps1 <= 2^-10 (got {eps1:.3g}); "
            "the contraction claims are proved only in that regime")
    kappas = [2.0]
    deltas = [eps1]
    for n in range(n_max):
        k, d = kappas[-1], deltas[-1]
        deltas.append(2.0 * k * k * d * d)
        kappas.append(k / (1.0 - k * k * d))
    for n in range(n_max + 1):
        if not kappas[n] < 4.0:
            raise PreconditionError(f"kappa_{n} = {kappas[n]} is not < 4")
        if n < n_max and not kappas[n + 1] - kappas[n] < 2.0 ** (-n):
            raise PreconditionError(f"kappa increment at level {n} exceeds 2^-{n}")
        if not deltas[n] <= 2.0 ** (5 * (1 - 2.0 ** n)) * eps1:
            raise PreconditionError(f"delta_{n} exceeds its doubly exponential bound")
    if not sum(k * d for k, d in zip(kappas, deltas)) < 8.0 * eps1:
        raise PreconditionError("movement series reached 8 eps1")
    return IterationSchedule(eps1, tuple(kappas), tuple(deltas))


# perfbench/tracer.py reads ``averaging.GroupMap.__call__`` when it installs;
# a map on the unitary group is an ``ApproxMap``, and this name is kept only
# for that hook until the benchmark stops wrapping ``__call__``.
GroupMap = ApproxMap


class AveragedGroupMap(ApproxMap):
    """Level ``level`` of the averaging: one pass over a fixed sample set of
    the parent map; the samples are held as a per-block stack with their
    parent values' inverses alongside.  A value costs one parent row per
    sample and is not cached: measurements carry the values they took
    forward."""

    def __init__(self, parent: ApproxMap, samples: tuple, inverses: np.ndarray, level: int):
        self.parent = parent
        self.samples = samples
        self.inverses = inverses
        self.level = level
        super().__init__(parent.domain, parent.dim, None,
                         stack_fn=lambda stack: np.stack([t.mean(axis=0)
                                                          for t in self._terms(stack)]))

    def _terms(self, stack):
        """rho(x_j)^{-1} rho(x_j u) for all samples x_j, one point u of a
        per-block stack at a time: one stacked product per block and one
        parent batch of M rows per point."""
        for k in range(stack[0].shape[0]):
            yield self.inverses @ self.parent.batch(
                tuple(x @ s[k] for x, s in zip(self.samples, stack)))

    def terms(self, stack) -> np.ndarray:
        """The terms at the K points of a stack, as (K, M, N, N); a value is
        the mean of its terms.  Each point's terms are written into the
        result as they come, so no second copy of them is held."""
        out = np.empty((len(stack[0]), len(self.inverses), self.dim, self.dim), dtype=complex)
        for k, t in enumerate(self._terms(stack)):
            out[k] = t
        return out


@dataclass(frozen=True)
class GroupMeasurement:
    """Probe measurements of a group map: inverse bound, multiplicativity
    defect, and (for averaged maps) the 3-sigma batch error of each.
    ``values`` (read-only) are the map's values at u, v and uv of each
    pair, (P, 3, N, N), for later stages to reuse."""

    kappa: float
    delta: float
    mc: float
    closeness: float = 0.0      # sup ||new(u) - parent(u)|| where applicable
    closeness_mc: float = 0.0
    pairs: int = 0
    values: np.ndarray | None = field(default=None, compare=False, repr=False)


def _batch_means(stack: np.ndarray, batches: int) -> np.ndarray:
    m = stack.shape[0]
    b = min(batches, m)
    cut = (m // b) * b
    return stack[:cut].reshape(b, cut // b, *stack.shape[1:]).mean(axis=1)


def _spread(mats: np.ndarray) -> float:
    """3 x standard error (Frobenius spread) of a batch of matrices along
    axis -3; the largest over any leading axes."""
    b = mats.shape[-3]
    dev = mats - mats.mean(axis=-3, keepdims=True)
    return 3.0 * float(np.sqrt((np.abs(dev) ** 2).sum(axis=(-2, -1)).mean(axis=-1) / b).max())


def measure_group_map(rho: ApproxMap, pairs,
                      against: GroupMeasurement | None = None) -> GroupMeasurement:
    """Measure kappa, the defect and their Monte-Carlo error over probe pairs,
    given as two per-block stacks (us, vs): ``rho`` evaluates the points u,
    v and uv of all pairs as one stack, and each supremum is one batched
    norm.  The closeness is taken against the values of ``against``, the
    parent's measurement on the same pairs."""
    us, vs = pairs
    count = len(us[0])
    points = tuple(np.stack([u, v, u @ v], axis=1).reshape(-1, *u.shape[1:])
                   for u, v in zip(us, vs))
    terms = rho.terms(points) if isinstance(rho, AveragedGroupMap) else None
    f = (rho.batch(points) if terms is None else terms.mean(axis=1)).reshape(
        count, 3, rho.dim, rho.dim)
    s = np.linalg.svd(f[:, :2], compute_uv=False)[..., -1]
    kappa = float(np.max(1.0 / np.maximum(s, 1e-300)))
    delta = la.op_norm(f[:, 2] - f[:, 0] @ f[:, 1])
    mc = close = close_mc = 0.0
    if terms is not None:
        b = np.stack([_batch_means(t, BATCHES) for t in terms]).reshape(
            count, 3, -1, rho.dim, rho.dim)
        mc = _spread(b[:, 2] - b[:, 0] @ b[:, 1])
    if against is not None:
        g = against.values
        close = la.op_norm(f - g)
        if terms is not None:
            close_mc = _spread(b[:, :2] - g[:, :2, None])
    f.setflags(write=False)
    return GroupMeasurement(kappa, delta, mc, close, close_mc, count, f)


@dataclass(frozen=True)
class AveragingPass:
    """Per-level record: measurements before and after one averaging pass and
    whether the pass respected the quadratic-contraction guarantee."""

    level: int
    before: GroupMeasurement
    after: GroupMeasurement
    contraction_bound: float
    closeness_bound: float
    kappa_bound: float

    @property
    def contraction_ok(self) -> bool:
        return self.after.delta <= self.contraction_bound

    @property
    def closeness_ok(self) -> bool:
        return self.after.closeness <= self.closeness_bound

    @property
    def kappa_ok(self) -> bool:
        return self.after.kappa <= self.kappa_bound


def average_once(rho: ApproxMap, width: int, probe_pairs, seed: int = 0,
                 before: GroupMeasurement | None = None
                 ) -> tuple[AveragedGroupMap, AveragingPass]:
    """One averaging pass with ``width`` common Haar samples, measured on
    ``probe_pairs``.

    The pass is level ``rho.level + 1`` of an averaged ``rho`` and level 1
    otherwise; ``seed`` seeds its sample draw (with the level).

    ``before``, when given, is the caller's measurement of ``rho`` on the
    same pairs (the closing one is compared with its values).
    Requires the measured hypothesis
    delta < kappa^{-2}.  The returned pass records the quadratic bound
    2 kappa^2 delta^2 + mc, the closeness bound kappa delta + mc and the
    inverse bound kappa/(1 - kappa^2 delta) + mc, each padded by the
    machine floor.
    """
    if width < 2:
        raise PreconditionError("averaging width must be >= 2")
    if before is None:
        before = measure_group_map(rho, probe_pairs)
    if not before.delta < 1.0 / before.kappa ** 2:
        raise PreconditionError(
            f"averaging hypothesis violated: defect {before.delta:.3g} "
            f">= kappa^-2 = {1.0 / before.kappa ** 2:.3g}")
    level = rho.level + 1 if isinstance(rho, AveragedGroupMap) else 1
    samples = HaarSampler(rho.domain, _derive_seed(seed, "level", level)).unitaries(width)
    inverses = la.batched_inv_cond(rho.batch(samples))
    new = AveragedGroupMap(rho, samples, inverses, level)
    after = measure_group_map(new, probe_pairs, against=before)
    floor = NUMERIC_FLOOR * max(1.0, before.kappa)
    k, d = before.kappa, before.delta
    rec = AveragingPass(
        level=level,
        before=before,
        after=after,
        contraction_bound=2.0 * k * k * d * d + after.mc + floor,
        closeness_bound=k * d + after.closeness_mc + after.mc + floor,
        kappa_bound=k / (1.0 - k * k * d) + after.mc + floor,
    )
    return new, rec


@dataclass
class StabilizeResult:
    final: ApproxMap
    levels: list  # AveragingPass per executed level
    initial: GroupMeasurement
    movement: float
    movement_bound: float | None
    stopped_by: str
    strict: bool

    def trace_rows(self):
        rows = [(0, self.initial.kappa, self.initial.delta, self.initial.mc, 0.0)]
        for p in self.levels:
            rows.append((p.level, p.after.kappa, p.after.delta, p.after.mc,
                         p.after.closeness))
        return rows


def stabilize(rho0: ApproxMap, eps1: float, tol: float, width: int, probe_pairs,
              max_levels: int = 4, initial: GroupMeasurement | None = None,
              seed: int = 0) -> StabilizeResult:
    """Iterate averaging passes, each measured on ``probe_pairs``, until the
    measured defect (or the analytic schedule) falls below ``tol``.

    ``seed`` seeds every pass's sample draw (``average_once(seed=)``).

    ``initial``, when given, is the caller's measurement of ``rho0`` on the
    same pairs; each pass's closing measurement opens the next.

    Every pass must keep its defect, its closeness to the previous level
    and its inverse bound within the bounds it records (``AveragingPass``);
    the first that does not raises ContractionError.

    In the strict regime (eps1 <= 2^-10) the schedule claims are enforced
    and the cumulative movement is checked against 8 eps1 (plus reported
    Monte-Carlo error).  For larger eps1 the per-pass hypothesis
    delta < kappa^-2 is still required but the global claims are only
    recorded, not asserted.
    """
    strict = eps1 <= SCHEDULE_EPS_MAX
    sched = schedule(eps1, max_levels + 1) if strict else None
    if initial is None:
        initial = measure_group_map(rho0, probe_pairs)
    if sched is not None:
        forecast = list(sched.deltas)
    else:
        # out-of-regime stop heuristic: run the recurrences from the measured
        # starting point without asserting the in-regime claims
        forecast = [eps1]
        k = max(initial.kappa, 1.0)
        for _ in range(max_levels + 1):
            d = forecast[-1]
            forecast.append(2.0 * k * k * d * d)
            k = k / max(1.0 - k * k * d, 1e-3)
    floor = NUMERIC_FLOOR
    if not initial.kappa <= 2.0 + initial.mc + 1e-6:
        raise PreconditionError(
            f"initial inverse bound {initial.kappa:.3g} exceeds 2")
    if not initial.delta <= eps1 + initial.mc + floor:
        raise PreconditionError(
            f"initial defect {initial.delta:.3g} exceeds eps1 = {eps1:.3g}")

    rho = rho0
    passes: list[AveragingPass] = []
    movement = 0.0
    measured = initial
    stopped = "tolerance"
    level = 0
    while True:
        if measured.delta < tol:
            stopped = "tolerance" if passes else "already-below-tolerance"
            break
        if forecast[min(level, len(forecast) - 1)] < tol:
            stopped = "schedule"
            break
        if level >= max_levels:
            stopped = "level-cap"
            break
        rho, rec = average_once(rho, width, probe_pairs, seed, before=measured)
        passes.append(rec)
        for ok, value, bound in (
                (rec.contraction_ok, f"defect {rec.after.delta:.3g}",
                 f"quadratic bound {rec.contraction_bound:.3g}"),
                (rec.closeness_ok, f"closeness {rec.after.closeness:.3g}",
                 f"closeness bound {rec.closeness_bound:.3g}"),
                (rec.kappa_ok, f"inverse bound {rec.after.kappa:.3g}",
                 f"kappa bound {rec.kappa_bound:.3g}")):
            if not ok:
                raise ContractionError(f"{value} exceeded the {bound} at level {rec.level} "
                                       "(Monte-Carlo width too small?)", trace=passes)
        movement += rec.after.closeness
        measured = rec.after
        level += 1

    bound = None
    if strict:
        mc_total = sum(p.after.closeness_mc + p.after.mc for p in passes)
        bound = 8.0 * eps1 + mc_total + floor
        if movement > bound:
            raise ContractionError(
                f"cumulative movement {movement:.3g} exceeded 8 eps1 = {8 * eps1:.3g}",
                trace=passes)
    return StabilizeResult(rho, passes, initial, movement, bound, stopped, strict)
