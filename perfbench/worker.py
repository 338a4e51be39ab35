"""One fresh process of the benchmark: set up a workload, run one iteration.

Usage: python3 perfbench/worker.py <workload> <seed> <setup|run|trace> <workdir>

``setup`` stops right before the first timed call, so its parent can time
the interpreter start, ``import navkit`` and the input build.  ``run``
times one iteration; ``trace`` times one iteration with every layer
wrapped and adds the span totals.  Every mode samples the host's speed
(``hostspeed.py``): in a burst right after set-up, and during the
iteration.  The last stdout line is one JSON object.
"""

import json
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path

import hostspeed
import workloads


def main() -> int:
    name, seed, mode, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3], Path(sys.argv[4])
    import navkit  # from src/: run.py puts it on PYTHONPATH

    if Path(navkit.__file__).resolve().parent != workloads.SRC / "navkit":
        print(f"navkit imported from {navkit.__file__}, not from {workloads.SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[name]
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = workload.build(seed, workdir)
    tracer = None
    if mode == "trace":
        import spans

        tracer = spans.install()
    ready = time.monotonic()
    setup_samples = hostspeed.burst()
    setup_scale = hostspeed.scale(setup_samples)
    if mode == "setup":
        print(json.dumps({"ready": ready, "setup_scale": setup_scale}))
        return 0

    # A workload that runs in child processes gets their samples back instead.
    sampler = hostspeed.Sampler().start() if workload.in_process else None
    t0 = time.perf_counter()
    it = workload.run(inputs, tracer is not None)
    wall = time.perf_counter() - t0
    samples = sampler.stop() if sampler is not None else it.host_samples
    # No samples when a cli_single command died before reporting them.
    samples = samples or setup_samples

    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    out = {
        "ready": ready,
        "setup_scale": setup_scale,
        "raw_wall_s": wall,
        "scale": hostspeed.scale(samples),
        "host_samples": len(samples),
        "epochs": it.epochs,
        "peak_rss_mb": usage / 1024.0,  # ru_maxrss is in KiB on Linux
        "bytes_written": it.written,
        "ops": [asdict(op) for op in it.ops],
    }
    if tracer is not None:
        tracer.save(str(workdir / "spans-worker.npz"))
        totals = [tracer.totals(), *(it.span_totals or [])]
        out["layers"] = spans.layer_metrics(spans.merge(totals), it.written, out["scale"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
