"""Self-test of the benchmark at tiny sizes (under a minute).

    python3 perfbench/selftest.py

For every workload, untraced and traced, it checks that a run passes its
reference checks and yields every end-to-end (or per-layer) metric named
in ``BENCHMARK.json`` with its unit.  It then corrupts a returned ΔV,
a final V and an exact counter, and checks that each is flagged as a
failure, so a zero ``failed`` count cannot hide a broken check.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import bench  # noqa: E402
import run  # noqa: E402
from spans import Tracer, instrument  # noqa: E402

TINY = bench.Scale(base=400, setup_repeats=2, wave_factor=0.02, wave_count_factor=0.01)
SECONDS = 0.4


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_metrics(metrics: dict, declared: list, label: str) -> None:
    for entry in declared:
        expect(entry["name"] in metrics, f"{label}: metric {entry['name']} missing")
        value, unit = metrics[entry["name"]]
        expect(unit == entry["unit"], f"{label}: {entry['name']} unit {unit} != {entry['unit']}")
        expect(isinstance(value, (int, float)) and math.isfinite(value),
               f"{label}: {entry['name']} = {value!r}")
    extra = set(metrics) - {entry["name"] for entry in declared}
    expect(not extra, f"{label}: undeclared metrics {sorted(extra)}")


def corrupted_delta_is_flagged(result) -> None:
    added, removed = result.deltas[0]
    result.deltas[0] = ([*added, ("no-such-tid", "no-such-cfd")], removed)
    bench.verify(result)
    expect(result.failed > 0 and result.problems, "a corrupted ΔV passed the checks")


def corrupted_final_is_flagged(result) -> None:
    result.final = set(result.final) | {("no-such-tid", "no-such-cfd")}
    bench.verify(result)
    expect(result.failed == result.attempted, "a corrupted final V passed the checks")


def changed_counter_is_flagged(result) -> None:
    record = bench.exact_counters(result)
    bytes_, *rest = record["waves"][0]
    record["waves"][0] = [bytes_ + 1, *rest]
    bench.verify(result, record)
    expect(result.failed > 0 and result.problems, "a changed exact counter passed")


def main() -> int:
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    expect(sorted(names) == sorted(bench.WORKLOADS), "BENCHMARK.json workloads differ")
    for name in names:
        workload = bench.WORKLOADS[name]
        result = bench.run(workload, 3, SECONDS, TINY)
        bench.verify(result)
        expect(not result.problems, f"{name}: {result.problems}")
        expect(result.attempted >= 1 and result.failed == 0, f"{name}: failures")
        check_metrics(bench.end_to_end(result), declared["end_to_end"], name)

        tracer = Tracer()
        instrument(tracer)
        try:
            traced = bench.run(workload, 3, SECONDS, TINY, repeats=1, tracer=tracer,
                               n_waves=len(result.wave_s))
        finally:
            tracer.unpatch()
        bench.verify(traced, bench.exact_counters(result))
        expect(not traced.problems, f"{name} traced: {traced.problems}")
        check_metrics(run.per_layer(tracer, traced, result), declared["per_layer"],
                      f"{name} traced")

        for corrupt in (corrupted_delta_is_flagged, corrupted_final_is_flagged,
                        changed_counter_is_flagged):
            corrupt(bench.run(workload, 3, SECONDS, TINY, n_waves=len(result.wave_s)))
        print(f"{name}: ok ({len(result.wave_s)} waves, {result.attempted} attempted)")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
