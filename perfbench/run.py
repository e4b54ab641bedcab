"""Benchmark command: sort closed-loop workloads and print their metrics.

Run from the repository root::

    python3 perfbench/run.py --workload bulk-uniform-4m --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke          # every workload, small, both modes

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Traced runs also
write their spans to ``perfbench/out/``.  The program under test is
imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    Closing a ``ProcessBackend`` joins its rank processes, but the
    ``multiprocessing`` resource tracker that shared memory starts lives
    until it is told to stop; left alone it outlives the command.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=10.0)
        if child.is_alive():
            child.kill()
            child.join()
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv: list[str] | None = None) -> int:
    # A SIGTERM unwinds like an exception, so the clean-up below still runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return _main(argv)
    finally:
        _stop_children()


def _main(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, every workload (or --workload), "
                             "untraced then traced")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.smoke:
        names = [args.workload] if args.workload else list(workloads.WORKLOADS)
        ok = True
        for name in names:
            for trace in (False, True):
                t0 = time.perf_counter()
                metrics = spec["per_layer" if trace else "end_to_end"]
                result = workloads.run(name, args.seed, args.seconds or 1.0,
                                       trace, metrics, smoke=True, out_dir=OUT)
                ok &= result["correct"] and result["failed"] == 0
                print(f"{name} trace={int(trace)} "
                      f"{time.perf_counter() - t0:.1f}s {json.dumps(result)}")
        return 0 if ok else 1
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    if args.seconds is None:
        parser.error("--seconds is required")
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    result = workloads.run(args.workload, args.seed, args.seconds,
                           bool(args.trace), metrics, out_dir=OUT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
