"""Run ``navkit.cli.main`` as one of cli_single's commands.

Usage: python3 perfbench/cli_child.py <base> <trace 0|1> <navkit arguments...>

Samples the host's speed while the command runs (see ``hostspeed.py``) and,
with trace 1, wraps every traced layer first.  When the command returns it
writes <base>.json (the host-speed samples and, traced, the per-name span
totals) and, traced, <base>.npz (every span), then exits with the command's
code.
"""

import json
import sys

import hostspeed  # the benchmark's own modules; the script's directory is on sys.path
import spans


def main() -> int:
    base, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    tracer = spans.install() if traced else None
    import navkit.cli

    sampler = hostspeed.Sampler().start()
    try:
        code = navkit.cli.main(argv)
    finally:
        out = {"host_samples": sampler.stop()}
        if tracer is not None:
            tracer.save(base + ".npz")
            out["totals"] = tracer.totals()
        with open(base + ".json", "w", encoding="utf-8") as fh:
            json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
