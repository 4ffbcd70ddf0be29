"""Per-layer spans and counters, recorded from outside the starstab package.

Installing a :class:`Tracer` replaces every binding of each traced public
function in the loaded ``starstab`` modules with a timing wrapper, so a call
through ``pipeline.estimate_defect`` is traced just like one through
``defects.estimate_defect``.  Spans nest: a layer's self time is its span's
duration minus the time of the traced spans it called.  Map evaluations are
counted by wrapping the ``__call__`` of the two caching map classes.
Nothing inside ``src/starstab`` changes, and results are unaffected: every
wrapper returns exactly what the wrapped function returned.
"""
from __future__ import annotations

import json
import sys
import weakref
from collections import defaultdict
from time import perf_counter

from starstab import algebra, averaging, defects, experiments, factory

# metric prefix, module, attribute: the layer boundaries that get spans
SPANS = (
    ("pipeline.run_pipeline", "starstab.pipeline", "run_pipeline"),
    ("experiments.kk_experiment", "starstab.experiments", "kk_experiment"),
    ("experiments.tower_experiment", "starstab.experiments", "tower_experiment"),
    ("defects.estimate_defect", "starstab.defects", "estimate_defect"),
    ("defects.normalize", "starstab.defects", "normalize"),
    ("factory.discretize", "starstab.factory", "discretize"),
    ("averaging.stabilize", "starstab.averaging", "stabilize"),
    ("averaging.average_once", "starstab.averaging", "average_once"),
    ("averaging.measure_group_map", "starstab.averaging", "measure_group_map"),
    ("reps.unitarize", "starstab.reps", "unitarize"),
    ("reps.decompose", "starstab.reps", "decompose"),
    ("reps.stone_generator", "starstab.reps", "stone_generator"),
    ("reps.lift_projection", "starstab.reps", "lift_projection"),
    ("synthesis.matrix_unit_correction", "starstab.synthesis", "matrix_unit_correction"),
    ("synthesis.near_inclusion_fix", "starstab.synthesis", "near_inclusion_fix"),
    ("synthesis.intertwiner", "starstab.synthesis", "intertwiner"),
    ("linalg.op_norm", "starstab._linalg", "op_norm"),
)
# called tens of thousands of times per op: timed and counted, but no span record is kept
LEAVES = {"linalg.op_norm"}
# the nine StageRecord names of run_pipeline, in pipeline order
STAGES = ("normalize", "discretize", "corner", "unitary-restriction", "stabilize",
          "unitarize", "decompose", "block-correction", "near-inclusion")


def _starstab_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "starstab" or name.startswith("starstab."))]


class Tracer:
    def __init__(self):
        self._undo = []
        self._stack = []              # [start, child seconds, span id] per open span
        self._inputs = weakref.WeakSet()
        self.spans = []               # (op, span id, parent id, name, start, end)
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.stage_s = defaultdict(float)
        self.op_wall = 0.0
        self.pipeline_wall = 0.0
        self.unstaged = 0.0
        self._op = 0
        self._active = False          # only work inside an op is recorded
        self._next_id = 1
        self._depth = defaultdict(int)

    # -- installation ---------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        for name, modname, attr in SPANS:
            original = getattr(sys.modules[modname], attr)
            hook = self._after_pipeline if name == "pipeline.run_pipeline" else None
            wrapper = self._span(name, original, hook)
            bound = 0
            for mod in _starstab_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
                        bound += 1
            if bound == 0:
                raise RuntimeError(f"no binding of {modname}.{attr} found to trace")
        self._set(defects.ApproxMap, "__call__",
                  self._counted(defects.ApproxMap.__call__, "_cache", "approxmap"))
        self._set(averaging.GroupMap, "__call__",
                  self._counted(averaging.GroupMap.__call__, "_memo", "groupmap"))
        unitary = algebra.HaarSampler.unitary

        def counted_unitary(sampler):
            self.counts["haar.unitaries"] += self._active
            return unitary(sampler)
        self._set(algebra.HaarSampler, "unitary", counted_unitary)
        # the kk and tower experiments build their input maps themselves
        self._set(experiments, "ApproxMap", self._registering(defects.ApproxMap))
        self._set(experiments, "perturb_additive",
                  self._registering(factory.perturb_additive))
        return self

    def close(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- wrappers -----------------------------------------------------------------

    def _span(self, name, fn, hook):
        stack = self._stack
        keep = name not in LEAVES

        def wrapper(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            frame = [perf_counter(), 0.0, span_id]
            stack.append(frame)
            self._depth[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[0]
                self.calls[name] += 1
                self.self_time[name] += dur - frame[1]
                self._depth[name] -= 1
                if self._depth[name] == 0:      # busy time counts the outermost call only
                    self.busy[name] += dur
                if stack:
                    stack[-1][1] += dur
                if keep:
                    parent = stack[-1][2] if stack else 0
                    self.spans.append((self._op, span_id, parent, name, frame[0], end))
            if hook is not None:
                hook(result, dur)
            return result
        return wrapper

    def _after_pipeline(self, result, dur):
        _, report = result
        staged = 0.0
        for rec in report.stages:
            staged += rec.seconds
            self.stage_s[rec.name] += rec.seconds
        self.pipeline_wall += dur
        self.unstaged += dur - staged

    def _counted(self, call, cache_attr, prefix):
        counts = self.counts
        inputs = self._inputs

        def wrapper(m, x):
            if not self._active:
                return call(m, x)
            before = len(getattr(m, cache_attr))
            out = call(m, x)
            counts[prefix + ".evals"] += 1
            if len(getattr(m, cache_attr)) == before:   # a miss always inserts
                counts[prefix + ".hits"] += 1
            elif m in inputs:
                counts["input_evals"] += 1
            return out
        return wrapper

    def _registering(self, make):
        def wrapper(*args, **kwargs):
            m = make(*args, **kwargs)
            self._inputs.add(m)
            return m
        return wrapper

    # -- per-op bookkeeping --------------------------------------------------------

    def begin_op(self, index, inputs=()):
        self._op = index
        self._active = True
        for m in inputs:
            self._inputs.add(m)

    def end_op(self, wall):
        self._active = False
        self.op_wall += wall

    # -- results -----------------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics summed over the ops: {name: (value, unit)}."""
        out = {}
        for stage in STAGES:
            out[f"pipeline.stage.{stage}_s"] = (self.stage_s[stage], "s")
        out["pipeline.unstaged_s"] = (self.unstaged, "s")
        out["pipeline.unstaged_frac"] = (
            self.unstaged / self.pipeline_wall if self.pipeline_wall else 0.0, "ratio")
        for name, _, _ in SPANS:
            if name.startswith("experiments."):
                continue
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.busy_s"] = (self.busy[name], "s")
            out[f"{name}.self_s"] = (self.self_time[name], "s")
        out["experiments.self_s"] = (self.self_time["experiments.kk_experiment"]
                                     + self.self_time["experiments.tower_experiment"], "s")
        for prefix, hits, layer in (("approxmap", "cache_hits", "defects.approxmap"),
                                    ("groupmap", "memo_hits", "averaging.groupmap")):
            evals = self.counts[prefix + ".evals"]
            out[f"{layer}.evals"] = (evals, "count")
            out[f"{layer}.{hits}"] = (self.counts[prefix + ".hits"], "count")
            out[f"{layer}.hit_ratio"] = (
                self.counts[prefix + ".hits"] / evals if evals else 0.0, "ratio")
        out["factory.input_evals"] = (self.counts["input_evals"], "count")
        out["algebra.haar.unitaries"] = (self.counts["haar.unitaries"], "count")
        out["unattributed_s"] = (self.op_wall - sum(self.self_time.values()), "s")
        out["trace.op_wall_s"] = (self.op_wall, "s")
        return out

    def unknown_stages(self) -> dict:
        return {k: v for k, v in self.stage_s.items() if k not in STAGES}

    def write_spans(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for op, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"op": op, "id": span_id, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")
