"""The ΔD-wave benchmark: one workload per run, checked, one JSON line out.

Usage (from the repository root)::

    python3 perfbench/run.py --workload inchor-wave10 --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
runs the workload twice on the same seed, first untraced and then with
every layer entry point wrapped (see ``spans.py``) on the same waves,
and reports per-layer metrics plus the tracing overhead.  Both modes
check every run against the centralized reference detector and against
the exact counters of the first run of the same seed.

Human-readable tables go to standard output first; the last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Results and spans are also written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import json
import os
import platform
import sqlite3
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import bench  # noqa: E402
from bench import WORKLOADS, Scale  # noqa: E402
from spans import LAYER_MOVES, Tracer, instrument  # noqa: E402

#: Per-layer metric -> unit, as reported with ``--trace 1``.  Times and
#: counts are per wave (per coalesced window on service-open; per build
#: for ``engine.setup.*`` and ``indexes.build_s``).  ``indexes.build_s``
#: is the index builders' self time (they nest: ``build_indexes`` calls
#: the store's ``build_cfd_index``); ``engine.setup.*`` are set-up phases,
#: each the wall time of its outermost spans, nested layers included.
PER_LAYER_UNITS = {
    "core.updates.normalize_s": "s",
    "core.updates.normalize_calls": "count",
    "core.updates.normalize_kept_ratio": "ratio",
    "partition.route_s": "s",
    "storage.fragment_write_s": "s",
    "storage.fragment_writes": "count",
    "indexes.idx_update_s": "s",
    "indexes.idx_ops": "count",
    "indexes.hev_eval_s": "s",
    "indexes.hev_calls": "count",
    "indexes.build_s": "s",
    "horizontal.protocol_s": "s",
    "horizontal.protocol_calls": "count",
    "kernels.batch_detect_s": "s",
    "kernels.fused_s": "s",
    "kernels.store_s": "s",
    "network.send_s": "s",
    "network.calls": "count",
    "network.bytes": "B",
    "network.messages": "count",
    "network.eqids": "count",
    "serialization.sizing_s": "s",
    "serialization.sizing_calls": "count",
    "violations.merge_s": "s",
    "violations.delta_size": "count",
    "runtime.scheduler_s": "s",
    "runtime.tasks": "count",
    "runtime.site_busy_max_s": "s",
    "runtime.site_skew": "ratio",
    "engine.apply_s": "s",
    "engine.apply_unattributed_s": "s",
    "engine.setup.deploy_s": "s",
    "engine.setup.initial_detect_s": "s",
    "service.queue_wait_ms": "ms",
    "service.window_updates": "count",
    "service.window_apply_ms": "ms",
    "service.backlog_max": "count",
    "service.generator_late_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "sqlite3": sqlite3.sqlite_version,
        "numpy": importlib.util.find_spec("numpy") is not None,
        "git_rev": git_revision(),
        "program_sha": bench.program_fingerprint(),
    }


def git_revision() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = HERE.parent / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def per_layer(tracer: Tracer, traced, untraced) -> dict:
    """Every per-layer metric of a traced run, by name."""
    waves = max(1, len(traced.wave_s))
    builds = max(1, len(traced.setup_s))

    def apply(*names):
        calls, items, own, _outer = tracer.stat("apply", *names)
        return calls / waves, items, own / waves

    def setup_self(name):
        return tracer.stat("setup", name)[2] / builds

    def setup_outer(name):
        return tracer.stat("setup", name)[3] / builds

    normalize_calls, normalize_in, normalize_s = apply("core.updates.normalize")
    writes, _, write_s = apply("storage.fragment_write")
    _, _, deliver_s = apply("storage.deliver")
    sizing_calls, _, sizing_s = apply("serialization.sizing")
    send_calls, _, send_s = apply("network.send")
    before, after = traced.scheduler
    busy = {site: after.get(site, 0.0) - before.get(site, 0.0) for site in after}
    busiest = max(busy.values(), default=0.0)
    mean_busy = sum(busy.values()) / len(busy) if busy else 0.0
    last = traced.counters[-1] if traced.counters else traced.network_start
    shipped = [last[i] - traced.network_start[i] for i in range(3)]
    untraced_rate = sum(untraced.wave_s) / max(1, sum(untraced.wave_updates))
    traced_rate = sum(traced.wave_s) / max(1, sum(traced.wave_updates))
    service = traced.service
    metrics = {
        "core.updates.normalize_s": normalize_s,
        "core.updates.normalize_calls": normalize_calls,
        "core.updates.normalize_kept_ratio": (
            tracer.normalize_out / normalize_in if normalize_in else 0.0
        ),
        "partition.route_s": apply("partition.route")[2],
        "storage.fragment_write_s": write_s + deliver_s,
        "storage.fragment_writes": writes,
        "indexes.idx_update_s": apply("indexes.idx_update")[2],
        "indexes.idx_ops": apply("indexes.idx_update")[0],
        "indexes.hev_eval_s": apply("indexes.hev_eval")[2],
        "indexes.hev_calls": apply("indexes.hev_eval")[0],
        "indexes.build_s": setup_self("indexes.build"),
        "horizontal.protocol_s": apply("horizontal.protocol")[2],
        "horizontal.protocol_calls": apply("horizontal.protocol")[0],
        "kernels.batch_detect_s": apply("kernels.batch_detect")[2],
        "kernels.fused_s": apply("kernels.fused")[2],
        "kernels.store_s": apply("kernels.store")[2],
        "network.send_s": send_s,
        "network.calls": send_calls,
        "network.bytes": shipped[0] / waves,
        "network.messages": shipped[1] / waves,
        "network.eqids": shipped[2] / waves,
        "serialization.sizing_s": sizing_s,
        "serialization.sizing_calls": sizing_calls,
        "violations.merge_s": apply("violations.merge")[2],
        "violations.delta_size": sum(len(a) + len(r) for a, r in traced.deltas) / waves,
        "runtime.scheduler_s": apply("runtime.scheduler")[2],
        "runtime.tasks": apply("runtime.scheduler")[1] / waves,
        "runtime.site_busy_max_s": busiest / waves,
        "runtime.site_skew": busiest / mean_busy if mean_busy else 0.0,
        "engine.apply_s": tracer.stat("apply", "engine.apply")[3] / waves,
        "engine.apply_unattributed_s": apply("engine.apply")[2],
        "engine.setup.deploy_s": setup_outer("engine.deploy"),
        "engine.setup.initial_detect_s": setup_outer("kernels.batch_detect"),
        "service.queue_wait_ms": (
            bench.percentile(service["queue_wait_s"], 50) * 1e3 if service else 0.0
        ),
        "service.window_updates": sum(traced.wave_updates) / waves if service else 0.0,
        "service.window_apply_ms": (
            bench.percentile(traced.wave_s, 50) * 1e3 if service else 0.0
        ),
        "service.backlog_max": service["backlog_max"] if service else 0,
        "service.generator_late_ms": (
            bench.percentile(service["late_s"], 99) * 1e3 if service else 0.0
        ),
        "trace.overhead_ratio": traced_rate / untraced_rate if untraced_rate else 0.0,
    }
    return {name: (value, PER_LAYER_UNITS[name]) for name, value in metrics.items()}


def layer_rows(tracer: Tracer, traced) -> list[tuple]:
    """(layer, self s/wave, calls/wave, items/wave, moves) over the apply phase."""
    waves = max(1, len(traced.wave_s))
    table = tracer.layer_table("apply")
    rows = [
        (layer, row["self_s"] / waves, row["calls"] / waves, row["items"] / waves,
         LAYER_MOVES.get(layer, ""))
        for layer, row in table.items()
    ]
    rows.sort(key=lambda row: -row[1])
    return rows


def check_and_record(result) -> None:
    record = bench.load_record(result)
    bench.verify(result, record)
    if not result.problems:
        bench.save_record(result, record)


def print_run(result, label: str) -> None:
    shapes = result.shapes
    print(f"[{label}] seed={result.seed} attempted={result.attempted} "
          f"failed={result.failed} failed_share={result.failed / max(1, result.attempted):.4f} "
          f"waves={len(result.wave_s)} updates={sum(result.wave_updates)}")
    if shapes:
        print(f"[{label}] waves: |ΔD|={shapes[0].size} "
              f"insert/delete={sum(s.inserts for s in shapes)}/{sum(s.deletes for s in shapes)} "
              f"same-tid share={sum(s.same_tid_share for s in shapes) / len(shapes):.3f}")
    for problem in result.problems:
        print(f"[{label}] PROBLEM: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = WORKLOADS[args.workload]
    scale = Scale()
    env = environment()
    print(f"workload: {workload.name} ({workload.strategy}, {workload.storage}, "
          f"{workload.executor[0]}) seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"why: {workload.why}")
    print(f"env: {json.dumps(env, sort_keys=True)}")
    out_dir = bench.STATE_DIR / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"

    if args.trace == 0:
        result = bench.run(workload, args.seed, args.seconds, scale)
        check_and_record(result)
        runs = [result]
        metrics = bench.end_to_end(result)
        print_run(result, "untraced")
        rows: list = []
        shipped_bytes, shipped_msgs = bench.shipped_per_update(result, workload, scale)
        # Reported but not gated: see "Run-to-run noise" in README.md.
        extra = {} if not workload.corrected else {
            "host_speed": (bench.host_speed(result), "ratio"),
            "wall_wave_p50_ms": (bench.percentile(result.wave_s, 50) * 1e3, "ms"),
            "wall_setup_s": (bench.percentile(result.setup_s, 50), "s"),
        }
        extra |= {
            "failed_share": (result.failed / max(1, result.attempted), "ratio"),
            "shipped_bytes_per_update": (shipped_bytes, "B"),
            "shipped_msgs_per_update": (shipped_msgs, "count"),
            "update_p90_ms": (bench.percentile(result.update_latency_s, 90) * 1e3, "ms"),
            "update_p99_ms": (bench.percentile(result.update_latency_s, 99) * 1e3, "ms"),
        }
        if len(result.wave_s) >= 1000:
            extra["wave_p99_ms"] = (bench.percentile(result.wave_s, 99) * 1e3, "ms")
    else:
        # Per-layer numbers are per wave, so one wave per phase suffices.
        scale = dataclasses.replace(scale, wave_count_factor=0.0)
        inputs = bench.make_inputs(args.seed, scale)
        untraced = bench.run(workload, args.seed, args.seconds / 2, scale,
                             repeats=1, inputs=inputs)
        check_and_record(untraced)
        tracer = Tracer()
        instrument(tracer)
        try:
            traced = bench.run(workload, args.seed, args.seconds / 2, scale, repeats=1,
                               inputs=inputs, tracer=tracer, n_waves=len(untraced.wave_s))
        finally:
            tracer.unpatch()
        check_and_record(traced)
        runs = [untraced, traced]
        metrics = per_layer(tracer, traced, untraced)
        print_run(untraced, "untraced")
        print_run(traced, "traced")
        rows = layer_rows(tracer, traced)
        print(f"{'layer':<16} {'self s/wave':>12} {'calls/wave':>12} {'items/wave':>12}  moves")
        for layer, own, calls, items, moves in rows:
            print(f"{layer:<16} {own:>12.6f} {calls:>12.1f} {items:>12.1f}  {moves}")
        tracer.write(out_dir / f"{stem}.spans.jsonl")
        print(f"spans: {tracer.spans_recorded} written, {tracer.spans_dropped} beyond the cap")
        failed = untraced.failed + traced.failed
        extra = {
            "failed_share": (failed / max(1, untraced.attempted + traced.attempted), "ratio"),
        }

    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name:<36} {value:>16.6f} {unit}")

    correct = all(not r.problems for r in runs)
    summary = {
        "correct": correct,
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(
        {**summary, "workload": workload.name, "why": workload.why, "seed": args.seed,
         "env": env, "extra": extra, "problems": [p for r in runs for p in r.problems],
         "layers": [list(row) for row in rows]}, indent=1))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
