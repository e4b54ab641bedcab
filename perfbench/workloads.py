"""The benchmark's closed-loop workloads.

One client issues a sort, waits for its ``SortResult`` and checks it before
issuing the next.  An untraced run reports the end-to-end metrics; a traced
run (``trace=True``) times the calls into each layer with spans, reads the
run records the program returns, and measures kernel rooflines.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs
import kernels
from checker import check_sort
from repro.core.api import DistributedSorter
from repro.parallel.backend import ProcessBackend
from spans import Spans

#: Rank processes of the process backend: fixed, whatever the host has.
WORKERS = 2
#: Rank count of the simulated cluster.
SIM_RANKS = 32
#: Step labels of the six-step sort, in order, with metric-name stems.
STEPS = (
    ("1-local-sort", "step1_local_sort"),
    ("2-sampling", "step2_sampling"),
    ("3-splitters", "step3_splitters"),
    ("4-partition", "step4_partition"),
    ("5-exchange", "step5_exchange"),
    ("6-merge", "step6_merge"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str  # "process" or "simnet"
    #: Keys per job at full and at smoke size.
    n: int
    smoke_n: int
    #: Set-ups per run; ``setup_s`` is their median.
    setups: int
    #: One round of jobs, one input kind per job (see :func:`_make`).
    round: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("bulk-uniform-4m", "process", 4_000_000, 200_000, 7, ("uniform",)),
        Workload("bulk-zipf-4m", "process", 4_000_000, 200_000, 7, ("zipf",)),
        Workload(
            "simnet-fig4-p32", "simnet", 1_000_000, 100_000, 9,
            tuple(f"fig4:{s}" for s in inputs.FIG4_SHAPES),
        ),
    )
}


def _make(kind: str, seed: int, job: int, n: int) -> np.ndarray:
    """A fresh input of ``kind`` for job ``job`` of the run seeded ``seed``."""
    rng = inputs.rng_for(seed, job)
    if kind.startswith("fig4:"):
        return inputs.fig4(rng, kind[len("fig4:"):], n)
    return {"uniform": inputs.uniform, "zipf": inputs.zipf}[kind](rng, n)


def _blocks(data: np.ndarray, p: int) -> tuple[list[np.ndarray], np.ndarray]:
    bounds = [len(data) * r // p for r in range(p + 1)]
    blocks = [data[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    return blocks, np.array(bounds[:-1], dtype=np.int64)


def _minor_faults(pids) -> int | None:
    """Summed minor page faults of ``pids`` from ``/proc/<pid>/stat``, or
    None when one of them has gone (a failed job replaces the pool)."""
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            return None
        total += int(fields[7])
    return total


def _caller_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


class Runner:
    """One run of one workload: set-up, the timed job loop, metrics."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 trace: bool, smoke: bool) -> None:
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        self.n = workload.smoke_n if smoke else workload.n
        self.p = WORKERS if workload.backend == "process" else SIM_RANKS
        self.spans = Spans()
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.job_seconds: list[float] = []
        self.traced_job_seconds: list[float] = []
        self.keys_sorted = 0
        self.worst_over_ideal = 0.0
        self.layer: dict[str, list[float]] = {}
        self.verdicts: list[str] = []
        self.setup_seconds: list[float] = []
        self.sorter = None  # ProcessBackend or DistributedSorter
        self.worker_peak: dict[int, int] = {}
        #: Last-level cache and memcpy array sizes, once kernels have run.
        self.memcpy: dict[str, int] = {}

    # ------------------------------------------------------------ set-up

    def _new_sorter(self):
        if self.w.backend == "process":
            return ProcessBackend(timeout_seconds=30.0)
        return DistributedSorter(num_processors=self.p)

    def setup(self) -> None:
        """Set up ``setups`` times (1 when traced); keep the last sorter.

        Each set-up is a fresh sorter plus one cold full-size warm-up job,
        timed until the first timed job could start.
        """
        count = 1 if (self.trace or self.smoke) else self.w.setups
        for k in range(count):
            warm = _make(self.w.round[0], self.seed, 1_000_000 + k, self.n)
            if self.sorter is not None:
                self._close()
            t0 = time.perf_counter()
            self.sorter = self._new_sorter()
            result, _run = self._sort(warm)
            self.setup_seconds.append(time.perf_counter() - t0)
            if not self._verify(warm, result):
                self.wrong += 1

    def _close(self) -> None:
        if self.w.backend == "process" and self.sorter is not None:
            self.sorter.close()

    # --------------------------------------------------------------- jobs

    def _sort(self, data: np.ndarray, job: int = -1, spans: Spans | None = None):
        """One job from the call until its ``SortResult`` is ready."""
        if self.w.backend == "simnet":
            if spans is None:
                return self.sorter.sort(data), None
            with spans.span("api.sort", job):
                return self.sorter.sort(data), None
        blocks, offsets = _blocks(data, self.p)
        if spans is None:
            run = self.sorter.sort_blocks(blocks)
            return run.to_sort_result(offsets), run
        with spans.span("backend.sort_blocks", job):
            run = self.sorter.sort_blocks(blocks)
        with spans.span("result.to_sort_result", job):
            result = run.to_sort_result(offsets)
        return result, run

    def _verify(self, data: np.ndarray, result) -> bool:
        errors = check_sort(
            data,
            _blocks(data, self.p)[1],
            result.per_processor,
            [prov.origin_proc for prov in result.provenance],
            [prov.origin_index for prov in result.provenance],
            result.counts_matrix,
            tie_shares=self.w.backend == "simnet",
        )
        if errors:
            print(f"check failed: {'; '.join(errors)}", file=sys.stderr)
        return not errors

    def run_jobs(self) -> None:
        """Whole rounds until ``seconds`` have passed; traced runs alternate
        traced and untraced rounds so the two can be compared."""
        job = 0
        rnd = 0
        deadline = time.perf_counter() + self.seconds
        while True:
            traced_round = self.trace and rnd % 2 == 0
            for key in self.w.round:
                data = _make(key, self.seed, job, self.n)
                self._one_job(data, job, traced_round)
                job += 1
            rnd += 1
            if time.perf_counter() >= deadline:
                break

    def _one_job(self, data: np.ndarray, job: int, traced: bool) -> None:
        self.attempted += 1
        spans = self.spans if traced else None
        pids = self.sorter.worker_pids if traced and self.w.backend == "process" else ()
        faults0 = _minor_faults(pids)
        t0 = time.perf_counter()
        try:
            if spans is None:
                result, run = self._sort(data)
            else:
                with spans.span("job", job):
                    result, run = self._sort(data, job, spans)
        except Exception as exc:  # a failed job is counted, the run goes on
            print(f"job {job} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            self.failed += 1
            return
        elapsed = time.perf_counter() - t0
        faults1 = _minor_faults(pids)
        if pids and faults0 is not None and faults1 is not None:
            self._add("worker.minor_faults", faults1 - faults0)
        if not self._verify(data, result):
            self.failed += 1
            self.wrong += 1
            return
        (self.traced_job_seconds if traced else self.job_seconds).append(elapsed)
        self.keys_sorted += len(data)
        counts = result.counts()
        self.worst_over_ideal = max(
            self.worst_over_ideal, float(counts.max()) / (len(data) / self.p)
        )
        if run is not None:
            self._record_run(run, len(data), traced)
        elif traced:
            self._record_simnet(result, len(data))

    def _add(self, name: str, value: float) -> None:
        self.layer.setdefault(name, []).append(float(value))

    def _record_run(self, run, n: int, traced: bool) -> None:
        """Read what one process-backend job reports about itself."""
        self.verdicts.append(run.splitter_cache or "")
        for rank, report in enumerate(run.reports):
            self.worker_peak[rank] = max(
                self.worker_peak.get(rank, 0), report.peak_rss_bytes
            )
        if not traced:
            return
        reports = run.reports
        for label, stem in STEPS:
            waits = [r.step_wait_seconds.get(label, 0.0) for r in reports]
            walls = [out.step_seconds.get(label, 0.0) for out in run.outputs]
            self._add(f"worker.{stem}_ms",
                      1e3 * max(w - x for w, x in zip(walls, waits)))
            self._add(f"worker.{stem}_wait_ms", 1e3 * max(waits))
        self._add("collectives.recv_wait_ms",
                  1e3 * max(r.recv_wait_seconds for r in reports))
        self._add("collectives.barrier_wait_ms",
                  1e3 * max(r.barrier_wait_seconds for r in reports))
        counts = np.asarray(run.counts_matrix)
        remote = int(counts.sum() - np.trace(counts))
        key_bytes = run.outputs[0].keys.dtype.itemsize
        self._add("exchange.remote_mb", remote * (key_bytes + 4) / 2**20)
        self._add("exchange.max_recv_over_ideal",
                  counts.sum(axis=0).max() / (n / self.p))
        self._add("wall_seconds", run.wall_seconds)
        self._add("worker_seconds", run.worker_seconds)

    def _record_simnet(self, result, n: int) -> None:
        metrics = result.metrics
        self._add("simnet.messages", metrics.messages)
        self._add("simnet.remote_mb", metrics.remote_bytes / 2**20)
        self._add("simnet.makespan_ms", 1e3 * metrics.makespan)
        self._add("simnet.comm_virtual_ms", 1e3 * metrics.communication_seconds())
        phases = metrics.phase_breakdown()
        for label, stem in STEPS:
            self._add(f"simnet.virtual.{stem}_ms", 1e3 * phases.get(label, 0.0))

    # ------------------------------------------------------------ metrics

    def peak_rss_mb(self) -> float:
        return _caller_peak_rss_mb() + sum(self.worker_peak.values()) / 2**20

    def end_to_end(self) -> dict[str, float]:
        return {
            "keys_per_s": (self.keys_sorted / sum(self.job_seconds)
                           if self.job_seconds else 0.0),
            "job_p50_ms": 1e3 * _median(self.job_seconds),
            "setup_s": _median(self.setup_seconds),
            "peak_rss_mb": self.peak_rss_mb(),
            "max_over_ideal": self.worst_over_ideal,
        }

    def per_layer(self) -> dict[str, float]:
        """Per-layer medians over the traced jobs (raw run records excluded)."""
        out = {
            name: _median(vals)
            for name, vals in self.layer.items()
            if name not in ("wall_seconds", "worker_seconds")
        }
        for span_name, metric in (("backend.sort_blocks", "backend.call_ms"),
                                  ("result.to_sort_result", "result.assemble_ms"),
                                  ("api.sort", "api.sort_ms")):
            out[metric] = 1e3 * _median(self.spans.durations(span_name))
        calls = self.spans.durations("backend.sort_blocks")
        if calls:
            walls = self.layer["wall_seconds"]
            workers = self.layer["worker_seconds"]
            out["backend.outside_workers_ms"] = 1e3 * _median(
                [c - w for c, w in zip(calls, workers)])
            out["backend.after_wall_ms"] = 1e3 * _median(
                [c - w for c, w in zip(calls, walls)])
        jobs = self.job_seconds + self.traced_job_seconds
        if len(jobs) >= 100:  # at least ten samples beyond p90
            out["job.p90_ms"] = 1e3 * float(np.percentile(jobs, 90))
        if self.verdicts:
            out["cache.hits"] = self.verdicts.count("hit")
            out["cache.misses"] = self.verdicts.count("miss")
            out["cache.fallbacks"] = sum(v.startswith("fallback") for v in self.verdicts)
            out["cache.hit_ratio"] = out["cache.hits"] / len(self.verdicts)
            stats = self.sorter.stats
            out["pool.retries"] = stats["retries"]
            out["pool.respawns"] = stats["respawns"]
            out["worker.peak_rss_mb"] = sum(self.worker_peak.values()) / 2**20
        out["caller.peak_rss_mb"] = _caller_peak_rss_mb()
        if self.w.backend == "simnet":
            total_wall = sum(self.spans.durations("api.sort"))
            out["simnet.messages_per_wall_s"] = (
                sum(self.layer["simnet.messages"]) / total_wall)
        if self.traced_job_seconds and self.job_seconds:
            out["trace.overhead_ratio"] = (
                _median(self.traced_job_seconds) / _median(self.job_seconds))
        out["trace.spans"] = len(self.spans.records)
        return out

    def reference(self) -> dict:
        """The machine and settings a run's numbers belong to.

        A process-backend run on fewer cores than rank processes measures
        overhead only, not speed.
        """
        process = self.w.backend == "process"
        return {
            "nproc": os.cpu_count(),
            "workers": self.p if process else None,
            "start_method": self.sorter.start_method if process else None,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "overhead_only": process and (os.cpu_count() or 1) < self.p,
            **self.memcpy,
        }

    def kernel_metrics(self) -> dict[str, float]:
        """Rooflines on one block of this workload's own input."""
        data = _make(self.w.round[0], self.seed, 2_000_000, self.n)
        block = _blocks(data, self.p)[0][0]
        k = kernels.block_kernels(block, self.p)
        llc = kernels.last_level_cache_bytes()
        copy_bytes = 64 << 20 if self.smoke else max(kernels.LLC_MULTIPLE * llc, 64 << 20)
        out = {
            "kernel.npsort_block_ms": k["npsort"],
            "kernel.packsort_block_ms": k["packsort"],
            "kernel.packsort_eligible": k["packsort_eligible"],
            "kernel.argsort_block_ms": k["argsort"],
            "kernel.merge_ms": k["merge"],
            "mem.memcpy_gbps": kernels.memcpy_gbps(copy_bytes),
        }
        step1 = self.layer.get("worker.step1_local_sort_ms")
        if step1:
            out["kernel.step1_over_npsort"] = _median(step1) / k["npsort"]
        self.memcpy = {"llc_bytes": llc, "memcpy_bytes": copy_bytes}
        return out


def run(name: str, seed: int, seconds: float, trace: bool,
        metrics: list[dict], smoke: bool = False,
        out_dir: Path | None = None) -> dict:
    """Run one workload and return the result object the command prints.

    ``metrics`` lists the ``{"name", "unit"}`` of every metric to print: the
    end-to-end ones untraced, the per-layer ones traced.  A per-layer metric
    of a layer this workload does not run reads 0.
    """
    runner = Runner(WORKLOADS[name], seed, seconds, trace, smoke)
    try:
        runner.setup()
        runner.run_jobs()
        if trace:
            values = runner.per_layer()
            values.update(runner.kernel_metrics())
            if out_dir is not None:
                runner.spans.write(out_dir / f"spans-{name}-seed{seed}.json")
        else:
            values = runner.end_to_end()
        print(f"# reference {runner.reference()}")
        if runner.w.backend == "process":
            stats = runner.sorter.stats
            print(f"# pool retries={stats['retries']} respawns={stats['respawns']}")
    finally:
        runner._close()
    unknown = set(values) - {m["name"] for m in metrics}
    if unknown:
        raise ValueError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return {
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            m["name"]: {
                "value": values.get(m["name"], 0.0) if trace else values[m["name"]],
                "unit": m["unit"],
            }
            for m in metrics
        },
    }
