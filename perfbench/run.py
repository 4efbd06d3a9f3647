#!/usr/bin/env python3
"""Benchmark of the thermoqubit command line, run from the repository root.

    python3 perfbench/run.py --workload sweep --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30
    python3 perfbench/run.py --workload wigner --seed 1 --trace 1 --record a.jsonl
    python3 perfbench/run.py --compare parent.jsonl change.jsonl
    python3 perfbench/run.py --workload all --seed 0 --write-reference

Workloads (the commands each one runs are in WORKLOADS below):

* sweep  - fidelity and Mandel sweeps up to n_bar = 14, where the cutoff
           reaches 496 of the 512 cap: import, cutoff selection, density
           expansion and the sweep thread pool.  Never calls the Wigner kernel.
* wigner - wigner-grid at n_bar = 0.1, 1 and 10 on the default grid: the
           Wigner kernel with 0, 1 and 2 grid widenings and CSV formatting.
* verify - the verification suite: the oracle routes (operator conjugation,
           doubled-space expm, Bogoliubov unitary, gate thermalization) and
           the Wigner kernel on small explicit grids.

The seed picks the real normalized amplitudes passed as --amps to every
command; seed 0 is the package's default amplitude set.

--trace 0 (end to end): each command runs as a fresh process, one at a time
(a closed loop with one client); the child keeps its default threads.  The
commands run round robin until the next one would end past --seconds;
each metric is the per-command median over its runs, summed (wall, CPU) or
maximized (RSS) over the list.  setup_s is the median wall time of a fresh `import thermoqubit`,
sampled before each round of commands.

--trace 1 (per layer): the same argv lists go through thermoqubit.cli.main
in this process, once traced, once untraced and once traced again.  Counts
must repeat exactly between the two traced passes and outputs must be
byte-identical across all three.  Import costs come from `-X importtime`.

Every command's outputs are checked (see check.py); a command that exits
nonzero or fails a check counts as failed.  The last stdout line is a JSON
object with correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import check
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
CHILD_TIMEOUT_S = 150.0
RUN_DEADLINE_S = 160.0    # a hung command is killed so the run ends in time
CLI_ENTRY = "import sys; from thermoqubit.cli import main; sys.exit(main())"
DEFAULT_AMPS = (0.2, 0.3, 0.6, math.sqrt(0.51))  # thermal.DEFAULT_AMPLITUDES

WORKLOADS = {
    "sweep": [
        ["sweep-fidelity", "--nbar-range", "0:14:400"],
        ["sweep-mandel", "--nbar-range", "0:14:400"],
        ["sweep-fidelity", "--nbar-range", "0:2:50"],
        ["sweep-mandel", "--nbar-range", "0:1:41"],
    ],
    "wigner": [
        ["wigner-grid", "--nbar", "0.1"],
        ["wigner-grid", "--nbar", "1"],
        ["wigner-grid", "--nbar", "10"],
    ],
    "verify": [["verify"]],
}


def amplitudes(seed: int) -> tuple[float, ...]:
    if seed == 0:
        return DEFAULT_AMPS
    import numpy as np

    raw = np.random.default_rng(seed).normal(size=4)
    return tuple(float(v) for v in raw / np.linalg.norm(raw))


def commands(workload: str, seed: int) -> list[list[str]]:
    # one token, so a leading minus sign is not read as an option
    amps = "--amps=" + ",".join(repr(a) for a in amplitudes(seed))
    return [argv + [amps] for argv in WORKLOADS[workload]]


def out_name(i: int, argv: list[str]) -> str:
    return f"{i}.json" if argv[0] == "verify" else f"{i}.csv"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def run_child(args: list[str], stderr_path: Path,
              timeout: float = CHILD_TIMEOUT_S):
    """Run one child to completion, killing it after `timeout` seconds:
    (exit code, wall s, cpu s, max RSS MB)."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=subprocess.DEVNULL, stderr=err,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0


ENV_PROBE = """
import json, platform, numpy, scipy, thermoqubit
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"package_file": thermoqubit.__file__,
                  "python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}"}))
"""


def environment(seed: int) -> dict:
    """Library versions from a child that imports the package under test;
    exits the benchmark if that package cannot be imported from src/."""
    if not (SRC / "thermoqubit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no thermoqubit sources under {SRC}")
    proc = subprocess.run([sys.executable, "-c", ENV_PROBE], env=child_env(),
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"perfbench: cannot import thermoqubit:\n{proc.stderr}")
    info = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(info.pop("package_file")).resolve().parent.parent != SRC:
        sys.exit("perfbench: thermoqubit was imported from outside src/")
    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    threads = {k: v for k, v in sorted(os.environ.items())
               if k == "THERMOQUBIT_THREADS" or k.endswith("_NUM_THREADS")
               or k == "PYTHONDONTWRITEBYTECODE"}
    info.update(nproc=len(os.sched_getaffinity(0)), cpu=cpu_model,
                machine=platform.machine(), env=threads, seed=seed)
    return info


# ---------------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------------

def setup_time(run_dir: Path) -> float:
    code, wall, _, _ = run_child([sys.executable, "-c", "import thermoqubit"],
                                 run_dir / "setup.err")
    if code != 0:
        sys.exit("perfbench: `import thermoqubit` failed:\n"
                 + (run_dir / "setup.err").read_text())
    return wall


def run_end_to_end(workload: str, seed: int, seconds: float, run_dir: Path):
    cmds = commands(workload, seed)
    refs = check.load_reference(workload, seed)
    setup = []
    walls = [[] for _ in cmds]
    cpus = [[] for _ in cmds]
    rss = [[] for _ in cmds]
    verdicts: list[bool] = []   # per command, from its first run
    digests: list[str] = []
    attempted = failed = 0
    measured = 0.0
    notes = []
    started = time.perf_counter()
    # Round robin over the command list until the next command would end
    # past `seconds`; every command runs at least once.  The machine's speed
    # drifts over seconds, so set-up samples are spread over the run: one
    # before each round, topped up at the end.
    for n in itertools.count():
        i = n % len(cmds)
        argv = cmds[i]
        if walls[i] and (measured + statistics.mean(walls[i]) > seconds
                         or time.perf_counter() - started > RUN_DEADLINE_S):
            break
        if i == 0:
            setup.append(setup_time(run_dir))
        out = run_dir / out_name(i, argv)
        paths = check.output_paths(argv[0], out)
        for path in paths:
            path.unlink(missing_ok=True)
        code, wall, cpu, peak = run_child(
            [sys.executable, "-c", CLI_ENTRY, *argv, "--out", str(out)],
            run_dir / f"{i}.err",
            RUN_DEADLINE_S - (time.perf_counter() - started))
        measured += wall
        walls[i].append(wall)
        cpus[i].append(cpu)
        rss[i].append(peak)
        attempted += 1
        if len(verdicts) <= i:
            found = check.problems(argv, out, refs[i] if refs else None)
            if code != 0:
                found.insert(0, f"exit code {code}: "
                             + (run_dir / f"{i}.err").read_text()[-400:])
            notes += [f"{' '.join(argv[:3])}: {p}" for p in found]
            verdicts.append(not found)
            digests.append(digest(paths))
            ok = not found
        else:
            same = digest(paths) == digests[i]
            if code != 0:
                notes.append(f"{' '.join(argv[:3])}: exit code {code}")
            elif not same:
                notes.append(f"{' '.join(argv[:3])}: output differs "
                             "between repetitions")
            ok = code == 0 and verdicts[i] and same
        failed += not ok
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_time(run_dir))
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(statistics.median(w) for w in walls),
        "cpu_s": sum(statistics.median(c) for c in cpus),
        "peak_rss_mb": max(statistics.median(r) for r in rss),
        "success_frac": (attempted - failed) / attempted,
    }
    samples = {"setup_s": setup, "wall_s": walls, "cpu_s": cpus,
               "peak_rss_mb": rss}
    return metrics, attempted, failed, notes, samples


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

IMPORT_PROBE = ("import sys; n = len(sys.modules); import thermoqubit; "
                "print(len(sys.modules) - n)")


def import_tree(stderr: str) -> list[tuple[str, float, list]]:
    """Parse `-X importtime` output into (name, cumulative s, children)."""
    pending: dict[int, list] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        node = (name.strip(), int(cumulative) / 1e6, pending.pop(depth + 1, []))
        pending.setdefault(depth, []).append(node)
    return pending.get(0, [])


def _outermost(nodes, prefix: str) -> float:
    total = 0.0
    for name, cumulative, children in nodes:
        if name == prefix or name.startswith(prefix + "."):
            total += cumulative
        else:
            total += _outermost(children, prefix)
    return total


def import_metrics(run_dir: Path) -> tuple[dict, list[str]]:
    times, scipy_times, counts = [], [], []
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               IMPORT_PROBE], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.exit(f"perfbench: import probe failed:\n{proc.stderr}")
        tree = import_tree(proc.stderr)
        times.append(_outermost(tree, "thermoqubit"))
        scipy_times.append(_outermost(tree, "scipy"))
        counts.append(int(proc.stdout.strip()))
    notes = [] if len(set(counts)) == 1 else [
        f"import.modules_loaded differs between children: {counts}"]
    return {"import.thermoqubit_s": statistics.median(times),
            "import.scipy_s": statistics.median(scipy_times),
            "import.modules_loaded": counts[0]}, notes


def run_traced(workload: str, seed: int, run_dir: Path):
    sys.path.insert(0, str(SRC))
    import thermoqubit  # noqa: F401  (loads every layer module)
    import thermoqubit.cli as cli

    cmds = commands(workload, seed)
    refs = check.load_reference(workload, seed)
    notes: list[str] = []

    def one_pass(tag: str, recorder):
        codes, digests = [], []
        start = time.perf_counter()
        for i, argv in enumerate(cmds):
            out = run_dir / f"{tag}-{out_name(i, argv)}"
            if recorder is not None:
                recorder.invocation = i
            try:
                codes.append(cli.main(argv + ["--out", str(out)]))
            except (Exception, SystemExit) as exc:  # a failed invocation
                notes.append(f"{tag} {' '.join(argv[:3])}: {exc!r}")
                codes.append(1)
            digests.append(digest(check.output_paths(argv[0], out)))
        return time.perf_counter() - start, codes, digests

    first = tracer.SpanRecorder()
    with tracer.traced("thermoqubit", first):
        _, first_codes, first_digests = one_pass("traced1", first)
    plain_wall, codes, plain_digests = one_pass("plain", None)
    second = tracer.SpanRecorder()
    with tracer.traced("thermoqubit", second):
        traced_wall, traced_codes, traced_digests = one_pass("traced2", second)

    failed = 0
    for i, argv in enumerate(cmds):
        out = run_dir / f"plain-{out_name(i, argv)}"
        found = check.problems(argv, out, refs[i] if refs else None)
        if codes[i] != 0 or first_codes[i] != 0 or traced_codes[i] != 0:
            found.append("nonzero exit code")
        if not first_digests[i] == traced_digests[i] == plain_digests[i]:
            found.append("traced output differs from untraced output")
        notes += [f"{' '.join(argv[:3])}: {p}" for p in found]
        failed += bool(found)

    counts = tracer.exact_metrics(second)
    if counts != tracer.exact_metrics(first):
        notes.append("exact counts differ between the two traced passes")
        failed += 1
    metrics, import_notes = import_metrics(run_dir)
    notes += import_notes
    failed += bool(import_notes)
    metrics.update(tracer.timed_metrics(second))
    metrics.update(counts)
    metrics["cli.output_bytes"] = sum(
        path.stat().st_size for i, argv in enumerate(cmds)
        for path in check.output_paths(argv[0],
                                       run_dir / f"plain-{out_name(i, argv)}"))
    metrics["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
    attempted = len(cmds) + 1  # the commands plus the count-repeat check
    return metrics, attempted, failed, notes, {"plain_wall_s": plain_wall,
                                               "traced_wall_s": traced_wall}


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def declared(trace: bool) -> list[dict]:
    return SPEC["per_layer" if trace else "end_to_end"]


def result(metrics: dict, trace: bool, attempted: int, failed: int) -> dict:
    names = [m["name"] for m in declared(trace)]
    if set(names) != set(metrics):
        raise AssertionError(f"metrics {sorted(set(metrics) ^ set(names))} "
                             "do not match BENCHMARK.json")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared(trace)},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    run_dir = WORK / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        env = environment(seed)
        if trace:
            metrics, attempted, failed, notes, samples = run_traced(
                workload, seed, run_dir)
        else:
            metrics, attempted, failed, notes, samples = run_end_to_end(
                workload, seed, seconds, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    out = result(metrics, trace, attempted, failed)
    record = {"workload": workload, "seed": seed, "trace": int(trace),
              "seconds": seconds, "env": env, **out, "notes": notes,
              "samples": samples}
    return out, record


def print_report(workload: str, record: dict):
    for note in record["notes"]:
        print(f"[{workload}] FAILED {note}")
    print(f"[{workload}] env {json.dumps(record['env'], sort_keys=True)}")
    for name, m in record["metrics"].items():
        print(f"[{workload}] {name:<48} {m['value']:>14.6g} {m['unit']}")
    print(f"[{workload}] {'failed_frac':<48} "
          f"{record['failed'] / record['attempted']:>14.6g} "
          f"(failed {record['failed']} of {record['attempted']})")


# ---------------------------------------------------------------------------
# compare mode
# ---------------------------------------------------------------------------

def _load_records(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _spread(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float | None) -> str:
    sign = 1.0 if better == "lower" else -1.0
    q1a, med_a, q3a = _spread(parent)
    q1b, med_b, q3b = _spread(change)
    if med_a == med_b and q1a == q3a and q1b == q3b:
        return "same"
    scale = abs(med_a) or 1.0
    gain = sign * (med_a - med_b) / scale          # > 0: change is better
    spread_a = (q3a - q1a) / scale
    spread_b = (q3b - q1b) / (abs(med_b) or 1.0)
    pairs = [sign * (a - b) for a in parent for b in change]
    wins = sum(p > 0 for p in pairs) / len(pairs)
    losses = sum(p < 0 for p in pairs) / len(pairs)
    if gain > spread_a and wins >= 0.9:
        return "better"
    if bound is None:
        return "worse" if -gain > spread_a and losses >= 0.9 else "unresolved"
    if -gain > bound:
        return "worse"
    if max(spread_a, spread_b) > bound and wins < 1.0:
        return "unresolved"
    return "within bound"


def compare(parent_path: str, change_path: str) -> int:
    parent, change = _load_records(parent_path), _load_records(change_path)
    envs = {json.dumps({k: v for k, v in r["env"].items() if k != "seed"},
                       sort_keys=True) for r in parent + change}
    if len(envs) != 1:
        print("refusing to compare: the environment records differ:")
        for env in sorted(envs):
            print("  " + env)
        return 2
    declared_all = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    workloads = sorted({r["workload"] for r in parent + change})
    print(f"{'workload':<8} {'metric':<48} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34}  verdict")
    for workload in workloads:
        for name, spec in declared_all.items():
            a = [r["metrics"][name]["value"] for r in parent
                 if r["workload"] == workload and name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in change
                 if r["workload"] == workload and name in r["metrics"]]
            if not a or not b:
                continue
            cells = []
            for values in (a, b):
                q1, med, q3 = _spread(values)
                cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}")
            print(f"{workload:<8} {name:<48} {cells[0]:>34} {cells[1]:>34}  "
                  f"{verdict(a, b, spec['better'], spec.get('bound'))}")
    return 0


# ---------------------------------------------------------------------------
# reference recording
# ---------------------------------------------------------------------------

def write_reference(workload: str, seed: int):
    run_dir = WORK / f"reference-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        environment(seed)
        summaries = []
        for i, argv in enumerate(commands(workload, seed)):
            out = run_dir / out_name(i, argv)
            code, *_ = run_child([sys.executable, "-c", CLI_ENTRY, *argv,
                                  "--out", str(out)], run_dir / "ref.err")
            found = check.problems(argv, out, None)
            if code != 0 or found:
                sys.exit(f"perfbench: {argv[0]} failed (exit {code}): {found}")
            summaries.append(check.summarize(argv, out))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    path = check.reference_path(workload, seed)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(summaries, separators=(",", ":")) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="FILE",
                        help="append the run record (with env) as a JSON line")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two files written by --record")
    parser.add_argument("--write-reference", action="store_true",
                        help="record reference outputs for this seed")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.write_reference:
        for workload in workloads:
            write_reference(workload, args.seed)
        return 0
    results = []
    for workload in workloads:
        out, record = run_workload(workload, args.seed, args.seconds,
                                   bool(args.trace))
        print_report(workload, record)
        if args.record:
            with open(args.record, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")
        results.append(out)
    if len(results) == 1:
        print(json.dumps(results[0]))
        return 0
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
