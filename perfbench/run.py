"""navkit benchmark: one workload, one seed, end-to-end or traced metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload mc_batch --seed 1 --seconds 30 --trace 0

Every timed iteration runs in its own fresh process (``worker.py``), one
process at a time, with NAVKIT_THREADS unset and BLAS pinned to one thread.
The number of iterations is fixed by ``--seconds`` and the workload's
reference iteration time, so every commit does the same work per run.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced iterations and prints the per-layer metrics.  The last
stdout line is the JSON result; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads

BENCH_DIR = workloads.BENCH_DIR
ROOT = workloads.ROOT
WORK = BENCH_DIR / "_work"
SETUP_SAMPLES = 8  # setup-only processes per run, besides the timed ones
DEADLINE_S = 150.0  # launch no further iteration after this
PROC_TIMEOUT_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "epochs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
}


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("NAVKIT_THREADS", "PYTHONDONTWRITEBYTECODE")}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(workloads.SRC)
    return env


def run_process(argv: list[str], env: dict, deadline: float) -> tuple[float, str]:
    """Run argv in its own session; return (start time, stdout).  On timeout
    the whole process group is killed and waited for."""
    start = time.monotonic()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise HarnessError(f"{argv[1:4]} timed out")
    if proc.returncode != 0:
        raise HarnessError(f"{argv[1:4]} exited {proc.returncode}: {err.strip()[-500:]}")
    return start, out


def worker(name: str, seed: int, mode: str, tag: str, env: dict, deadline: float) -> dict:
    workdir = WORK / f"{name}-{seed}-{tag}"
    shutil.rmtree(workdir, ignore_errors=True)
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), name, str(seed), mode, str(workdir)]
    start, out = run_process(argv, env, deadline)
    result = json.loads(out.strip().splitlines()[-1])
    result["mode"] = mode
    # Times at the reference host speed (hostspeed.py); the raw ones are kept.
    result["raw_setup_s"] = result["ready"] - start
    result["setup_s"] = result["raw_setup_s"] * result["setup_scale"]
    if "raw_wall_s" in result:
        result["wall_s"] = result["raw_wall_s"] * result["scale"]
    if mode != "trace":
        shutil.rmtree(workdir, ignore_errors=True)
    return result


def environment() -> dict:
    env = worker_env()
    probe = (
        "import json, numpy; "
        "b = numpy.show_config(mode='dicts')['Build Dependencies']['blas']; "
        "print(json.dumps({'numpy': numpy.__version__, 'blas': b.get('name'), "
        "'blas_version': b.get('version')}))"
    )
    info = json.loads(run_process([sys.executable, "-c", probe], env, time.monotonic() + 60)[1])
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    sha = None  # stays None in a checkout that is not a git repository
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted((workloads.SRC / "navkit").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        **info,
        "blas_threads": int(env["OPENBLAS_NUM_THREADS"]),
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "navkit_threads_set": "NAVKIT_THREADS" in os.environ,
        "processes_at_once": 1,
    }


def score(iterations: list[dict]) -> tuple[int, int, bool, list[str]]:
    """(attempted, failed, correct, notes) over all iterations' operations,
    including the check that each operation's output is bit-identical to
    the first iteration's."""
    attempted = failed = 0
    correct = True
    notes = []
    reference = {}
    for i, it in enumerate(iterations):
        for op in it["ops"]:
            ok, content_ok = op["ok"], op["content_ok"]
            first = reference.setdefault(op["name"], op["digest"])
            if op["digest"] != first:
                ok = content_ok = False
                op["detail"] += " output differs from iteration 0"
            attempted += 1
            failed += not ok
            correct &= content_ok
            if not ok:
                notes.append(f"iteration {i} {op['name']}: FAILED {op['detail']}")
    return attempted, failed, correct, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (workloads.SRC / "navkit" / "__init__.py").is_file():
        print(f"perfbench: navkit sources not found under {workloads.SRC}", file=sys.stderr)
        return 2

    began = time.monotonic()
    deadline = began + PROC_TIMEOUT_S
    name, seed = args.workload, args.seed
    workload = workloads.WORKLOADS[name]
    env = worker_env()
    WORK.mkdir(exist_ok=True)
    try:
        env_block = environment()
        # Untimed: compiles bytecode and warms the file cache, as a user's
        # installed package would already have done.
        run_process([sys.executable, "-c", "import navkit, navkit.cli"], env, deadline)

        n_iter = max(1, round(args.seconds / workload.iter_s))
        if args.trace == 0:
            procs = [worker(name, seed, "setup", f"setup{i}", env, deadline) for i in range(SETUP_SAMPLES)]
            rounds = [("run",)] * n_iter
        else:
            procs = []
            # Pairs alternate which side goes first, so slow drifts cancel.
            rounds = [(("run", "trace"), ("trace", "run"))[i % 2] for i in range(max(1, round(n_iter / 2)))]
        for i, modes in enumerate(rounds):
            if i and time.monotonic() - began > DEADLINE_S:
                break
            procs += [worker(name, seed, mode, f"{mode}{i}", env, deadline) for mode in modes]
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    iterations = [p for p in procs if p["mode"] != "setup"]
    untraced = [p for p in iterations if p["mode"] == "run"]
    traced = [p for p in iterations if p["mode"] == "trace"]
    attempted, failed, correct, notes = score(iterations)
    walls = [it["wall_s"] for it in untraced]
    if args.trace == 0:
        setups = [p["setup_s"] for p in procs]
        metrics = {
            "wall_s": statistics.median(walls),
            "epochs_per_s": statistics.median(it["epochs"] / it["wall_s"] for it in untraced),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in untraced),
            # Add-one (Laplace) estimate of the failure probability: failed
            # over attempted, kept off zero so relative bounds stay defined.
            "error_rate": (failed + 1) / (attempted + 2),
        }
        units = END_TO_END_UNITS
        counts = {"setup_s": len(setups)}
    else:
        metrics = {k: statistics.median(it["layers"][k] for it in traced) for k in traced[0]["layers"]}
        metrics["bench.trace_overhead"] = (
            statistics.median(it["wall_s"] for it in traced) / statistics.median(walls) - 1.0
        )
        units = {k: _layer_unit(k) for k in metrics}
        counts = {}

    record = {
        "workload": name,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "iterations": len(iterations),
        "processes": [
            {k: p.get(k) for k in (
                "mode", "setup_s", "raw_setup_s", "wall_s", "raw_wall_s", "scale", "host_samples", "peak_rss_mb"
            )}
            for p in procs
        ],
        "environment": env_block,
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "notes": notes,
        "metrics": metrics,
    }
    (WORK / f"result-{name}-{seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2))

    print(f"# navkit benchmark  workload={name} seed={seed} trace={args.trace}")
    print("# environment " + json.dumps(env_block, sort_keys=True))
    for note in notes:
        print("# " + note)
    print(f"# operations attempted={attempted} failed={failed} correct={correct}")
    print("# wall_s per timed process (raw): " + " ".join(
        f"{it['mode']}={it['wall_s']:.3f}({it['raw_wall_s']:.3f})" for it in iterations
    ))
    for key, value in metrics.items():
        n = counts.get(key, len(untraced) if args.trace == 0 else len(traced))
        print(f"{key:42s} {value:16.6f} {units[key]:8s} (median of {n})")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[1]
    return {
        "calls": "count",
        "draws": "count",
        "self_s": "s",
        "s": "s",
        "us_per_call": "us",
        "gflops_computed": "GFLOP/s",
        "applied_ratio": "ratio",
        "calls_per_update": "ratio",
        "bytes_written": "bytes",
        "trace_overhead": "ratio",
    }[suffix]


if __name__ == "__main__":
    sys.exit(main())
