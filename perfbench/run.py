"""oplab benchmark: command-line workloads, timed from outside.

    python3 perfbench/run.py --workload count --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  A closed loop with one client: tasks run
one at a time, each as a fresh ``python -m oplab.cli ...`` child, which is
what a command-line user pays.  Seeded inputs are written before timing
starts; every task's stdout is checked against an independent reference
(see workloads.py).  Passes over the workload's task list repeat until
``--seconds`` have gone by.

--trace 0 reports the end-to-end metrics, medians over passes; wall times
exclude hypervisor steal (/proc/stat), which is 0 on bare metal.  --trace 1
alternates plain passes with passes whose children run under
launcher.py, which records per-layer spans and counters, and reports the
per-layer metrics.  The last line of stdout is one JSON object; the lines
before it are a readable report, and a fuller record (machine, seed,
commit, per-task times, every layer) goes to .perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import launcher
import workloads

HERE = Path(__file__).resolve().parent
TASK_TIMEOUT_S = 30  # about ten times the slowest task
RUN_LIMIT_S = 140  # tasks not started by then fail, so a run always ends within 180 s
MEMORY_LIMIT_BYTES = 2 << 30  # address-space guard per task child
SETUP_REPEATS = 11
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
HASH_SEED = "0"  # dp iterates sets and frozensets; a fixed hash seed makes timing repeat

# layer -> the end-to-end metric and workload it should move
PREDICTIONS = {
    "cli": "wall_s on analyse (many short tasks: parse, CSV, emit)",
    "trees.parse_monomial": "wall_s on count (brute part) and sweep",
    "trees.divides": "wall_s on sweep and count (presentation self-reduction)",
    "trees.compose": "wall_s on count (operadize)",
    "trees.matches_at_root": "wall_s on count (brute root checks)",
    "order.key": "wall_s on sweep and count",
    "monomial.presentation": "wall_s on sweep",
    "monomial.parse_presentation": "wall_s on count (presentation files)",
    "monomial.dp": "wall_s on count; per-call cost on sweep",
    "monomial.brute": "wall_s and peak_rss_mb on count (brute part)",
    "monomial.gapcheck": "wall_s on sweep",
    "monomial.enumerate_irr": "wall_s on sweep",
    "linalg.rank_mod": "wall_s and slowest_task_s on analyse",
    "linalg.kernel_is_trivial": "wall_s and slowest_task_s on analyse",
    "linalg.nullspace": "wall_s on analyse",
    "linalg.solve": "wall_s on analyse (rational fits)",
    "linalg.scale_rows_to_int": "wall_s on analyse",
    "series.guess_holonomic": "wall_s and slowest_task_s on analyse",
    "series.fit_rational": "wall_s on analyse",
    "series.gk_estimate": "wall_s on analyse and sweep",
    "algebra.presets": "wall_s on analyse",
    "algebra.hilbert_dims": "wall_s on analyse",
    "branch.closed_set_counts": "wall_s on analyse",
    "constructions.operadize": "wall_s on count",
    "constructions.envelope": "wall_s on analyse",
}

# the layers each workload is built to stress
INTENDED = {
    "count": ("monomial.dp", "monomial.brute"),
    "sweep": ("monomial.dp", "monomial.gapcheck", "series.gk_estimate"),
    "analyse": tuple(k for k in PREDICTIONS if k.startswith(("series.", "linalg."))),
}


COUNTED_ONLY = {layer for _, _, layer, mode in launcher.LAYERS if mode == launcher.COUNT}


@dataclass
class Outcome:
    task: str
    wall: float  # less steal
    steal: float
    cpu: float
    rss_mb: float
    error: str | None


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT_BYTES, MEMORY_LIMIT_BYTES))


def steal_seconds() -> float:
    """Total steal time of this machine's CPUs (the steal column of /proc/stat):
    time a hypervisor ran something else while a CPU here had work."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / CLOCK_TICKS if len(fields) > 8 else 0.0


def run_child(argv, env, cwd, stdin_path, out_path, err_path):
    """Run one child to completion.

    Returns (wall, steal, cpu, rss_mb, exit code, timed out).  ``wall`` is
    the child's wall time less the steal time accrued meanwhile; on bare
    metal steal is 0 and this is the plain wall time.
    """
    timed_out = []
    with open(stdin_path or os.devnull, "rb") as fin, \
            open(out_path, "wb") as fout, open(err_path, "wb") as ferr:
        steal0 = steal_seconds()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=fin, stdout=fout, stderr=ferr, env=env, cwd=cwd,
                                preexec_fn=_limit_memory)

        def on_alarm(signum, frame):
            timed_out.append(True)
            proc.kill()

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, TASK_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
        steal = steal_seconds() - steal0
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return (max(wall - steal, 0.0), steal, cpu, usage.ru_maxrss / 1024.0, proc.returncode,
            bool(timed_out))


def run_pass(tasks, env, root, scratch, traced, stop_at):
    """One pass over the task list; returns the outcomes and, if traced, the
    (task, trace) pairs.  Tasks due after ``stop_at`` fail without running."""
    outcomes, traces = [], []
    for i, task in enumerate(tasks):
        if time.perf_counter() > stop_at:
            outcomes.append(Outcome(task.name, 0.0, 0.0, 0.0, 0.0,
                                    f"not run: the run passed its {RUN_LIMIT_S} s limit"))
            continue
        out, err, trace_file = (scratch / f"{i}.out", scratch / f"{i}.err", scratch / f"{i}.trace")
        if traced:
            argv = [sys.executable, str(HERE / "launcher.py"), str(trace_file), "--", *task.args]
        else:
            argv = [sys.executable, "-m", "oplab.cli", *task.args]
        wall, steal, cpu, rss, code, timed_out = run_child(argv, env, root, task.stdin, out, err)
        if timed_out:
            error = f"timed out after {TASK_TIMEOUT_S} s"
        elif code != 0:
            lines = err.read_text(errors="replace").strip().splitlines()
            error = f"exit {code}: {lines[-1] if lines else 'no stderr'}"
        else:
            try:
                error = task.check(out.read_text())
            except Exception as exc:  # a garbled output must not stop the pass
                error = f"check failed on the output: {exc!r}"
        outcomes.append(Outcome(task.name, wall, steal, cpu, rss, error))
        if traced and trace_file.exists():
            traces.append((task.name, json.loads(trace_file.read_text())))
            trace_file.unlink()
    return outcomes, traces


def setup_times(env, root, scratch) -> list[float]:
    """Wall time of a fresh interpreter importing oplab.cli, after one warm-up."""
    argv = [sys.executable, "-c", "import oplab.cli"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        wall, _, _, _, code, timed_out = run_child(argv, env, root, None,
                                                scratch / "setup.out", scratch / "setup.err")
        if code != 0 or timed_out:
            raise BenchError("cannot import oplab.cli: "
                             + (scratch / "setup.err").read_text(errors="replace")[-300:])
        if i:
            times.append(wall)
    return times


def machine_info(root: Path) -> dict:
    def first(path, prefix):
        try:
            with open(path) as fh:
                return next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith(prefix)), None)
        except OSError:
            return None

    commit = None
    head = root / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (root / ".git" / ref[5:]).exists():
            commit = (root / ".git" / ref[5:]).read_text().strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": first("/proc/cpuinfo", "model name"),
        "mem_total": first("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "git_commit": commit,
        "pythonhashseed": HASH_SEED,
    }


def pass_totals(outcomes):
    return {
        "wall_s": sum(o.wall for o in outcomes),
        "steal_s": sum(o.steal for o in outcomes),
        "cpu_s": sum(o.cpu for o in outcomes),
        "peak_rss_mb": max(o.rss_mb for o in outcomes),
    }


def layer_totals(traces) -> dict[str, float]:
    """Sum one pass's per-task summaries (longest span: max, not sum)."""
    total: dict[str, float] = {}
    for _, trace in traces:
        for key, value in launcher.summarize(trace["spans"], trace["counts"]).items():
            if key.endswith(".max_s"):
                total[key] = max(total.get(key, 0.0), value)
            else:
                total[key] = total.get(key, 0.0) + value
    return total


def median_dict(dicts) -> dict[str, float]:
    keys = sorted(set().union(*dicts))
    return {k: statistics.median(d.get(k, 0.0) for d in dicts) for k in keys}


def declared_metrics(root: Path) -> tuple[dict[str, str], dict[str, str]]:
    """End-to-end and per-layer metric names and units from BENCHMARK.json.

    The result line carries exactly these.  Per-layer self times are zero on
    workloads that never call the layer, so the declared per-layer set is the
    exact counts plus times and ratios nonzero everywhere; the report prints
    every layer.
    """
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "oplab" / "cli.py").is_file():
        raise BenchError("run from the root of an oplab checkout (src/oplab/cli.py not found)")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = Path(".perfbench_work") / "results"
    scratch = Path(".perfbench_work") / f"{tag}-{os.getpid()}"
    results.mkdir(parents=True, exist_ok=True)
    scratch.mkdir(parents=True)
    try:
        return _run(args, root, tag, results, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(args, root, tag, results, scratch) -> int:
    end_to_end, per_layer = declared_metrics(root)
    env = {k: v for k, v in os.environ.items() if k not in ("OPLAB_THREADS", "PYTHONPATH")}
    env.update(PYTHONPATH=str(root / "src"), PYTHONHASHSEED=HASH_SEED)
    tasks = workloads.build(args.workload, args.seed, scratch)
    info = machine_info(root)
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    print("# " + json.dumps(info, sort_keys=True))

    stop_at = time.perf_counter() + RUN_LIMIT_S
    setup = [] if args.trace else setup_times(env, root, scratch)
    plain, traced, traces_by_pass = [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        in_trace = bool(args.trace) and len(plain) > len(traced)
        outcomes, traces = run_pass(tasks, env, root, scratch, in_trace, stop_at)
        (traced if in_trace else plain).append(outcomes)
        if in_trace:
            traces_by_pass.append(traces)
        now = time.perf_counter()
        if now > stop_at or (now >= deadline and (not args.trace or traced)):
            break

    every = [o for p in plain + traced for o in p]
    failures = [o for o in every if o.error]
    for o in failures[:10]:
        print(f"# FAILED {o.task}: {o.error}")
    samples = len(plain)
    totals = [pass_totals(p) for p in plain]
    e2e = median_dict(totals)
    if setup:
        e2e["setup_s"] = statistics.median(setup)
    error_rate = len(failures) / len(every)

    per_task = {t.name: statistics.median(o.wall for p in plain for o in p if o.task == t.name)
                for t in tasks}
    # time to the hardest answer: the costliest task's median over passes
    e2e["slowest_task_s"] = max(per_task.values())

    print(f"# workload {args.workload}: {len(tasks)} tasks per pass, {samples} plain passes, "
          f"{len(traced)} traced passes")
    for name, unit in end_to_end.items():
        if name in e2e:
            n = len(setup) if name == "setup_s" else samples
            print(f"{name:>16} {e2e[name]:12.4f} {unit:<5} median of {n}")
    # reported, not declared: a single task's median over a few passes drifts
    # 20-25% between runs on a shared host, more than any bound allows
    print(f"{'slowest_task_s':>16} {e2e['slowest_task_s']:12.4f} s     median of {samples} "
          f"({max(per_task, key=per_task.get)})")
    print(f"{'steal_s':>16} {e2e['steal_s']:12.4f} s     median of {samples} "
          f"(hypervisor steal, already taken out of the times above)")
    print(f"{'error_rate':>16} {error_rate:12.4f} ratio over {len(every)} tasks")
    for name, wall in per_task.items():
        print(f"#   task {name:<24} {wall:8.3f} s")

    record = {"info": info, "end_to_end": e2e, "error_rate": error_rate, "setup_samples": setup,
              "passes": totals, "per_task_s": per_task,
              "failures": [(o.task, o.error) for o in failures]}
    if args.trace:
        metrics = _layer_report(args.workload, traces_by_pass, traced, e2e, record, per_layer)
        spans_out = results / f"{tag}-spans.json"
        spans_out.write_text(json.dumps(
            [[name, *span, f"pass{p}:{task}"] for p, traces in enumerate(traces_by_pass)
             for task, trace in traces for name, *span in trace["spans"]]))
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in end_to_end.items()}
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": len(every), "failed": len(failures),
                      "metrics": metrics}))
    return 0


def _layer_report(workload, traces_by_pass, traced, e2e, record, per_layer) -> dict:
    layers = median_dict([layer_totals(t) for t in traces_by_pass])
    traced_wall = statistics.median(pass_totals(p)["wall_s"] for p in traced)
    layers["trace_overhead"] = traced_wall / e2e["wall_s"] - 1
    kernel = layers.get("linalg.kernel_is_trivial.calls", 0.0)
    layers["series.guess.fallback_ratio"] = (
        layers.get("linalg.nullspace.calls", 0.0) / kernel if kernel else 0.0)
    inproc = layers.get("inproc_s", 0.0)
    intended = sum(layers.get(f"{k}.self_s", 0.0) for k in INTENDED[workload])
    layers["intended_layer_share"] = 100.0 * intended / inproc if inproc else 0.0
    record["layers"] = layers

    print(f"# per-layer, median of {len(traced)} traced passes; in-process {inproc:.3f} s, "
          f"trace overhead {layers['trace_overhead']:+.1%}")
    print(f"# {'layer':<28} {'calls':>9} {'self_s':>9} {'share':>7}  predicted to move")
    for layer, prediction in PREDICTIONS.items():
        calls = layers.get(f"{layer}.calls", 0.0)
        own = layers.get(f"{layer}.self_s")
        share = f"{100 * own / inproc:6.1f}%" if own is not None and inproc else "      -"
        own_txt = f"{own:9.4f}" if own is not None else f"{'count' if layer in COUNTED_ONLY else '-':>9}"
        print(f"# {layer:<28} {calls:9.0f} {own_txt} {share}  {prediction}")
    for key in ("monomial.dp.max_s", "monomial.normal_forms", "linalg.rank_mod.cells",
                "monomial.enumerate_irr.yielded", "series.guess.fallback_ratio"):
        print(f"# {key:<28} {layers.get(key, 0.0):.6g}")
    print(f"# intended layers {', '.join(INTENDED[workload])}: "
          f"{layers['intended_layer_share']:.1f}% of in-process time")
    return {k: {"value": layers.get(k, 0.0), "unit": u} for k, u in per_layer.items()}


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
