#!/usr/bin/env python3
"""The omicsurv benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from anywhere inside a checkout that holds ``src/omicsurv``. The run
makes the workload's input files from the seed (timed as ``setup_s``, the
median of several set-ups), then runs the workload's omicsurv CLI command in a
fresh process again and again for S seconds, one at a time. Outputs are
checked after the timed loop. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1`` the
command instead runs untraced twice and then under ``perfbench/tracing.py``,
and the metrics are the per-layer ones taken from the spans. ``--smoke`` runs
tiny inputs. Run facts, output hashes and every sample are written to
``.perfbench_runs/results/``; spans to ``.perfbench_runs/traces/``.
"""

import os

# One BLAS/OpenMP thread in this process and, by inheritance, in every process
# it starts: thread-count changes move exact t-SNE's iterates and its timing.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
# set up at least 3 and at most 15 times, and for at least a second in all
SETUP_REPEATS = (3, 15)
SETUP_MIN_S = 1.0
UNTRACED_IN_TRACE_RUN = 2
STARTUP_REPEATS = 3
MAX_PROBLEMS = 5  # check problems reported per command
RUN_LIMIT_S = 170.0  # a run must end within 180 s

# name -> unit; the quality metrics are fixed at 1.0 on workloads that
# produce no AUC or no embedding (see README.md)
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "auc_mean": "auc", "tsne_kl": "nats"}
NOT_APPLICABLE = 1.0


def _per_layer_units() -> dict[str, str]:
    units = {
        "dataio.load_s": "s", "dataio.save_s": "s", "dataio.read_mb_per_s": "MB/s",
        "dataio.write_mb_per_s": "MB/s", "dataio.cells": "count",
        "dataio.build_features_s": "s",
        "normalize.fsqn_s": "s", "normalize.fsqn_genes_per_s": "genes/s",
        "normalize.log2_s": "s", "normalize.integrate_self_s": "s",
        "survival.label_s": "s",
        "project.affinities_s": "s", "project.tsne_self_s": "s",
        "project.iter_ms": "ms", "project.iterations": "count",
    }
    for family in tracing.MODEL_FAMILIES:
        units.update({f"models.fit_s.{family}": "s", f"models.fit_calls.{family}": "count",
                      f"models.fit_ms_p50.{family}": "ms",
                      f"models.fit_ms_p90.{family}": "ms"})
    units.update({
        "models.predict_s": "s", "models.predict_calls": "count",
        "rpensemble.train_self_s": "s", "rpensemble.base_fits": "count",
        "rpensemble.selected_ratio": "ratio", "rpensemble.predict_s": "s",
        "evaluation.cv_self_s": "s", "evaluation.folds": "count",
        "evaluation.auc_s": "s", "evaluation.auc_calls": "count",
        "search.random_search_s": "s", "search.trials": "count",
        "search.trials_ok_ratio": "ratio", "search.trial_s_p50": "s",
        "search.trial_s_p90": "s", "search.parallel_efficiency": "ratio",
        "pipeline.run_s": "s", "pipeline.self_s": "s",
        "cli.startup_s": "s",
        "trace.wall_s": "s", "trace.overhead_s": "s", "trace.remainder_s": "s",
        "fail_ratio": "ratio",
    })
    return units


PER_LAYER = _per_layer_units()


@dataclass
class Op:
    """One run of the workload's command in a fresh process."""
    label: str
    out: Path
    start: float = 0.0
    end: float = 0.0
    code: int = 0
    peak_rss_mb: float = 0.0
    cpu_s: float = 0.0
    problems: list[str] = field(default_factory=list)
    hashes: dict[str, str] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.end - self.start


class Runner:
    def __init__(self, workload, inputs: Path, work: Path, deadline: float):
        self.workload = workload
        self.inputs = inputs
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.pop("OMICSURV_WORKERS", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])

    def spawn(self, cmd: list[str], log: Path) -> tuple[float, float, int, object]:
        """Start, wait, and return (start, end, exit code, resource usage).
        ``wait4`` reports the largest RSS of the child and of every
        descendant it waited for, pool workers included, and their CPU time."""
        with open(log, "wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=ROOT, start_new_session=True)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()),
                                    os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return start, end, proc.returncode, usage

    def run(self, label: str, workers: int | None = None,
            spans: Path | None = None, run_id: str = "") -> Op:
        op = Op(label=label, out=self.work / label)
        op.out.mkdir(parents=True)
        argv = self.workload.argv(self.inputs, op.out, workers)
        if spans is None:
            cmd = [sys.executable, "-m", "omicsurv.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "tracing.py"), str(spans), run_id, "--", *argv]
        log = self.work / f"{label}.log"
        op.start, op.end, op.code, usage = self.spawn(cmd, log)
        op.peak_rss_mb = usage.ru_maxrss / 1024.0
        op.cpu_s = usage.ru_utime + usage.ru_stime
        if op.code != 0:
            tail = log.read_text(encoding="utf-8", errors="replace")[-400:]
            op.problems.append(f"{label}: exit code {op.code}: {tail}")
        return op

    def verify(self, ops: list[Op]) -> None:
        """Check outputs and hash them. Every op must write the same bytes as
        the first complete one, whose outputs are checked in full."""
        reference = None
        for op in ops:
            if op.code != 0:
                continue
            missing = [n for n in self.workload.outputs if not (op.out / n).is_file()]
            if missing:
                op.problems.append(f"{op.label}: missing outputs {missing}")
                continue
            op.hashes = {n: sha256(op.out / n) for n in self.workload.outputs}
            if reference is None:
                reference = op
                try:
                    problems = self.workload.check(self.inputs, op.out)
                except Exception as exc:  # noqa: BLE001 - malformed output fails the op
                    problems = [f"output check raised {exc!r}"]
                if len(problems) > MAX_PROBLEMS:
                    problems = problems[:MAX_PROBLEMS] + [
                        f"and {len(problems) - MAX_PROBLEMS} more problems"]
            elif op.hashes != reference.hashes:
                op.problems.append(f"{op.label}: outputs differ from {reference.label}")
                continue
            op.problems += [f"{op.label}: {p}" for p in problems]


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _git_commit() -> str | None:
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


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def run_facts(args, workload) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "size": workload.size,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(), "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": _git_commit(),
    }


def _median(values) -> float:
    return float(statistics.median(values))


def timed_run(runner: Runner, seconds: float) -> tuple[list[Op], dict]:
    ops = []
    loop_start = time.perf_counter()
    while not ops or time.perf_counter() - loop_start < seconds:
        ops.append(runner.run(f"rep{len(ops)}"))
    runner.verify(ops)
    good = [op for op in ops if not op.problems]
    metrics = {}
    if good:
        metrics["wall_s"] = _median([op.wall_s for op in good])
        metrics["peak_rss_mb"] = _median([op.peak_rss_mb for op in good])
        quality = runner.workload.quality(runner.inputs, good[0].out)
        for name in ("auc_mean", "tsne_kl"):
            metrics[name] = quality.get(name, NOT_APPLICABLE)
    return ops, metrics


def traced_run(runner: Runner, seed: int) -> tuple[list[Op], dict, dict]:
    workload = runner.workload
    ops = [runner.run(f"untraced{i}") for i in range(UNTRACED_IN_TRACE_RUN)]
    passes = []
    for label, workers in workload.trace_passes:
        spans_path = RUNS / "traces" / f"{workload.name}-seed{seed}-{label}.json"
        spans_path.unlink(missing_ok=True)
        op = runner.run(f"traced-{label}", workers=workers, spans=spans_path,
                        run_id=f"{workload.name}/seed{seed}/{label}")
        spans = (json.loads(spans_path.read_text())["spans"]
                 if spans_path.is_file() else [])
        check = tracing.self_time_check(spans, op.start, op.end)
        if not check["ok"]:
            op.problems.append(f"{op.label}: self times do not add up: {check}")
        ops.append(op)
        passes.append((label, op, spans, dict(check, spans_file=str(spans_path))))
    runner.verify(ops)

    startup = []
    for i in range(STARTUP_REPEATS):
        start, end, code, _ = runner.spawn(
            [sys.executable, "-c", "import omicsurv.cli"], runner.work / f"startup{i}.log")
        startup.append(end - start)
        if code != 0:
            ops[0].problems.append(f"import omicsurv.cli exited {code}")

    _, main_op, main_spans, main_check = passes[0]
    _, _, layer_spans, _ = passes[-1]
    metrics = tracing.layer_metrics(
        layer_spans, parallel_spans=main_spans if len(passes) > 1 else None)
    untraced = [op.wall_s for op in ops[:UNTRACED_IN_TRACE_RUN] if op.code == 0]
    metrics["cli.startup_s"] = _median(startup)
    metrics["trace.wall_s"] = main_op.wall_s
    metrics["trace.overhead_s"] = main_op.wall_s - (_median(untraced) if untraced else 0.0)
    metrics["trace.remainder_s"] = main_check["remainder_s"]
    summary = {label: dict(check, layers="per-layer metrics" if i == len(passes) - 1 else
                           "overhead, parallel efficiency (pool worker spans are lost)")
               for i, (label, _, _, check) in enumerate(passes)}
    return ops, metrics, summary


def _emit(metrics: dict, units: dict) -> dict:
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items() if name in metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs")
    args = parser.parse_args(argv)

    if not (SRC / "omicsurv" / "cli.py").is_file():
        print(f"perfbench: no omicsurv sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.get(args.workload, smoke=args.smoke)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {workloads.NAMES}", file=sys.stderr)
        return 2
    import omicsurv
    if Path(omicsurv.__file__).resolve().parent != SRC / "omicsurv":
        print(f"perfbench: imported omicsurv from {omicsurv.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    work = RUNS / f"work-{tag}-{os.getpid()}"
    inputs = work / "inputs"
    (RUNS / "results").mkdir(parents=True, exist_ok=True)
    (RUNS / "traces").mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []
        while len(setup_times) < SETUP_REPEATS[0] or (
                len(setup_times) < SETUP_REPEATS[1] and sum(setup_times) < SETUP_MIN_S):
            shutil.rmtree(inputs, ignore_errors=True)
            inputs.mkdir(parents=True)
            start = time.perf_counter()
            workload.setup(inputs, args.seed, workload.size)
            setup_times.append(time.perf_counter() - start)
        input_hashes = {p.name: sha256(p) for p in sorted(inputs.iterdir())}

        runner = Runner(workload, inputs, work, deadline)
        summary = None
        if args.trace:
            ops, metrics, summary = traced_run(runner, args.seed)
        else:
            ops, metrics = timed_run(runner, args.seconds)
            metrics["setup_s"] = _median(setup_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for op in ops if op.problems)
    problems = [p for op in ops for p in op.problems]
    metrics["fail_ratio"] = failed / len(ops)
    units = PER_LAYER if args.trace else END_TO_END
    correct = not problems and all(name in metrics for name in units)
    record = {
        "facts": run_facts(args, workload),
        "setup_s": setup_times,
        "inputs_sha256": input_hashes,
        "outputs_sha256": next((op.hashes for op in ops if op.hashes), {}),
        "ops": [{"label": op.label, "wall_s": op.wall_s, "peak_rss_mb": op.peak_rss_mb,
                 "cpu_s": op.cpu_s, "code": op.code, "ok": not op.problems} for op in ops],
        "trace": summary,
        "problems": problems,
        "metrics": metrics,
    }
    (RUNS / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1))
    for problem in problems:
        print(f"FAILED {problem}")
    print("facts: " + json.dumps({k: record[k] for k in
                                  ("facts", "inputs_sha256", "outputs_sha256")}))
    print(json.dumps({
        "correct": correct, "attempted": len(ops), "failed": failed,
        "metrics": _emit(metrics, units),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
