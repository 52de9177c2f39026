"""Span tracing around omicsurv's public functions, from outside the package.

Run as a script, this module is a drop-in for ``python -m omicsurv.cli``:

    python3 perfbench/tracing.py SPANS_JSON RUN_ID -- <omicsurv cli args>

It replaces each instrumented function with a wrapper in every omicsurv
module that binds it (``normalize`` imports ``merge`` from ``dataio`` by name,
so both bindings are replaced), runs the CLI, and writes the recorded spans to
SPANS_JSON when the command ends. Spans are kept in memory until then. Spans
recorded inside worker processes of a process pool die with those processes.

Imported as a module, it turns a spans file into per-layer metrics
(``layer_metrics``) and checks the self-time bookkeeping (``self_time_check``).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

MIB = float(1 << 20)

MODEL_FAMILIES = ("gaussian_nb", "svm_rbf", "l1_logistic", "random_forest",
                  "rectangle_mlp")


def _file_bytes(args, kwargs, position: int) -> int:
    return os.path.getsize(kwargs["path"] if "path" in kwargs else args[position])


def _loaded(args, kwargs, result):
    # clinical files load as a list of records with five fields each
    cells = int(result.values.size) if hasattr(result, "values") else 5 * len(result)
    return {"bytes": _file_bytes(args, kwargs, 0), "cells": cells}


def _saved(args, kwargs, result):
    return {"bytes": _file_bytes(args, kwargs, 1)}


def _fsqn(args, kwargs, result):
    return {"genes": result.n_genes}


def _tsne(args, kwargs, result):
    config = kwargs.get("config", args[1] if len(args) > 1 else None)
    return {"iterations": config.iterations}


def _fit(args, kwargs, result):
    return {"family": result.spec.family}


def _rp_train(args, kwargs, result):
    return {"selected": len(result.projections),
            "attempted": int(result.group_errors.size)}


def _cv(args, kwargs, result):
    return {"folds": len(result.rows)}


def _search(args, kwargs, result):
    budget = kwargs.get("budget", args[4] if len(args) > 4 else None)
    workers = kwargs.get("worker_count", args[6] if len(args) > 6 else 1)
    _, trials = result
    return {"budget": budget, "workers": workers,
            "trial_times": [t.wall_time for t in trials]}


# (module, function, span name, attribute extractor run on success)
INSTRUMENTED = (
    ("omicsurv.pipeline", "run_experiment", "pipeline.run_experiment", None),
    ("omicsurv.dataio", "load_expression", "dataio.load", _loaded),
    ("omicsurv.dataio", "load_cna", "dataio.load", _loaded),
    ("omicsurv.dataio", "load_clinical", "dataio.load", _loaded),
    ("omicsurv.dataio", "load_features", "dataio.load", _loaded),
    ("omicsurv.dataio", "save_expression", "dataio.save", _saved),
    ("omicsurv.dataio", "save_cna", "dataio.save", _saved),
    ("omicsurv.dataio", "save_clinical", "dataio.save", _saved),
    ("omicsurv.dataio", "build_features", "dataio.build_features", None),
    ("omicsurv.dataio", "merge", "dataio.merge", None),
    ("omicsurv.normalize", "log2_transform", "normalize.log2", None),
    ("omicsurv.normalize", "fsqn", "normalize.fsqn", _fsqn),
    ("omicsurv.normalize", "integrate", "normalize.integrate", None),
    ("omicsurv.survival", "make_labeled_dataset", "survival.label", None),
    ("omicsurv.project", "input_affinities", "project.affinities", None),
    ("omicsurv.project", "tsne", "project.tsne", _tsne),
    ("omicsurv.models", "fit", "models.fit", _fit),
    ("omicsurv.models", "predict_scores", "models.predict", None),
    ("omicsurv.rpensemble", "train", "rpensemble.train", _rp_train),
    ("omicsurv.rpensemble", "predict_scores", "rpensemble.predict", None),
    ("omicsurv.evaluation", "cross_validate", "evaluation.cross_validate", _cv),
    ("omicsurv.evaluation", "auc", "evaluation.auc", None),
    ("omicsurv.search", "random_search", "search.random_search", _search),
)


class Recorder:
    """In-memory spans: [name, start, end, parent index, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name, extract):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), None, parent, None])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
            if extract is not None:
                self.spans[index][4] = extract(args, kwargs, result)
            return result
        return traced

    def instrument(self):
        """Replace every binding of each instrumented function in the
        imported omicsurv modules; ``omicsurv.cli`` imports all of them."""
        import omicsurv.cli  # noqa: F401

        modules = [m for name, m in sys.modules.items()
                   if name == "omicsurv" or name.startswith("omicsurv.")]
        for module_name, attr, span, extract in INSTRUMENTED:
            fn = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(fn, span, extract)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)


def _main(argv: list[str]) -> int:
    out_path, run_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracing.py SPANS_JSON RUN_ID -- <cli args>")
    from omicsurv import cli

    recorder = Recorder()
    recorder.instrument()
    pid = os.getpid()
    try:
        code = cli.main(cli_args)
    finally:
        if os.getpid() == pid:
            Path(out_path).write_text(json.dumps(
                {"run_id": run_id, "pid": pid, "spans": recorder.spans}))
    return code


# ---------------------------------------------------------------- analysis

def self_times(spans) -> np.ndarray:
    """Span duration minus the durations of its child spans."""
    out = np.array([end - start for _, start, end, _, _ in spans])
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _union_length(intervals) -> float:
    total, reach = 0.0, -np.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_time_check(spans, wall_start: float, wall_end: float) -> dict:
    """Self times plus the untraced remainder must add up to the traced wall
    time. The remainder is the wall time that no root span covers, so the sum
    is off when spans overlap where they should nest or follow each other;
    a child that outlasts its parent gives a negative self time."""
    wall = wall_end - wall_start
    selfs = self_times(spans) if spans else np.zeros(0)
    remainder = wall - _union_length([(s, e) for _, s, e, parent, _ in spans if parent < 0])
    inside = all(wall_start <= start <= end <= wall_end for _, start, end, _, _ in spans)
    tolerance = 1e-6 * max(wall, 1.0)
    ok = (inside and bool(np.all(selfs >= -tolerance))
          and abs(float(selfs.sum()) + remainder - wall) <= tolerance)
    return {"wall_s": wall, "self_sum_s": float(selfs.sum()), "remainder_s": remainder,
            "spans": len(spans), "inside_wall": inside, "ok": ok}


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _ratio(num, den) -> float:
    return float(num) / den if den else 0.0


def layer_metrics(spans, parallel_spans=None) -> dict[str, float]:
    """Per-layer metrics from one traced pass. ``parallel_spans``, when given,
    is the pass that ran the search pool and supplies parallel efficiency."""
    selfs = self_times(spans) if spans else np.zeros(0)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def dur(i):
        return spans[i][2] - spans[i][1]

    def total(name):
        return float(sum(dur(i) for i in idx(name)))

    def self_total(name):
        return float(sum(selfs[i] for i in idx(name)))

    def attrs(i):
        return spans[i][4] or {}  # a span whose call raised has no attributes

    def attr_sum(name, key):
        return sum(attrs(i).get(key, 0) for i in idx(name))

    m: dict[str, float] = {}
    load_s, save_s = total("dataio.load"), total("dataio.save")
    m["dataio.load_s"] = load_s
    m["dataio.save_s"] = save_s
    m["dataio.read_mb_per_s"] = _ratio(attr_sum("dataio.load", "bytes") / MIB, load_s)
    m["dataio.write_mb_per_s"] = _ratio(attr_sum("dataio.save", "bytes") / MIB, save_s)
    m["dataio.cells"] = float(attr_sum("dataio.load", "cells"))
    m["dataio.build_features_s"] = total("dataio.build_features")

    fsqn_s = total("normalize.fsqn")
    m["normalize.fsqn_s"] = fsqn_s
    m["normalize.fsqn_genes_per_s"] = _ratio(attr_sum("normalize.fsqn", "genes"), fsqn_s)
    m["normalize.log2_s"] = total("normalize.log2")
    m["normalize.integrate_self_s"] = self_total("normalize.integrate")

    m["survival.label_s"] = total("survival.label")

    iterations = attr_sum("project.tsne", "iterations")
    tsne_self = self_total("project.tsne")
    m["project.affinities_s"] = total("project.affinities")
    m["project.tsne_self_s"] = tsne_self
    m["project.iter_ms"] = 1e3 * _ratio(tsne_self, iterations)
    m["project.iterations"] = float(iterations)

    fits: dict[str, list[float]] = {f: [] for f in MODEL_FAMILIES}
    for i in idx("models.fit"):
        fits.setdefault(attrs(i).get("family"), []).append(dur(i))
    for family in MODEL_FAMILIES:
        ms = [1e3 * d for d in fits[family]]
        m[f"models.fit_s.{family}"] = float(sum(fits[family]))
        m[f"models.fit_calls.{family}"] = float(len(ms))
        m[f"models.fit_ms_p50.{family}"] = _pct(ms, 50)
        m[f"models.fit_ms_p90.{family}"] = _pct(ms, 90)
    m["models.predict_s"] = total("models.predict")
    m["models.predict_calls"] = float(len(idx("models.predict")))

    train = set(idx("rpensemble.train"))
    m["rpensemble.train_self_s"] = self_total("rpensemble.train")
    m["rpensemble.base_fits"] = float(sum(1 for i in idx("models.fit")
                                          if spans[i][3] in train))
    m["rpensemble.selected_ratio"] = _ratio(attr_sum("rpensemble.train", "selected"),
                                            attr_sum("rpensemble.train", "attempted"))
    m["rpensemble.predict_s"] = total("rpensemble.predict")

    m["evaluation.cv_self_s"] = self_total("evaluation.cross_validate")
    m["evaluation.folds"] = float(attr_sum("evaluation.cross_validate", "folds"))
    m["evaluation.auc_s"] = total("evaluation.auc")
    m["evaluation.auc_calls"] = float(len(idx("evaluation.auc")))

    searches = [attrs(i) for i in idx("search.random_search")]
    trial_times = [t for s in searches for t in s.get("trial_times", [])]
    m["search.random_search_s"] = total("search.random_search")
    m["search.trials"] = float(len(trial_times))
    m["search.trials_ok_ratio"] = _ratio(len(trial_times),
                                         sum(s.get("budget", 0) for s in searches))
    m["search.trial_s_p50"] = _pct(trial_times, 50)
    m["search.trial_s_p90"] = _pct(trial_times, 90)
    pool = spans if parallel_spans is None else parallel_spans
    pool_searches = [s for s in pool if s[0] == "search.random_search" and s[4]]
    busy = sum(t for s in pool_searches for t in s[4]["trial_times"])
    capacity = sum(s[4]["workers"] * (s[2] - s[1]) for s in pool_searches)
    m["search.parallel_efficiency"] = _ratio(busy, capacity)

    m["pipeline.run_s"] = total("pipeline.run_experiment")
    m["pipeline.self_s"] = self_total("pipeline.run_experiment")
    return m


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
