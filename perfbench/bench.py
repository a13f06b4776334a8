"""The four ΔD-wave workloads, their timed loops and reference checks.

Every workload applies seeded ΔD waves to a TPC-H base of 20k tuples,
fragmented over 4 sites and checked against 12 generated CFDs, through
the public ``repro.session(...)`` and ``DetectionService`` APIs.  All
inputs of a wave are generated before its timed region; the checks run
after the timed regions.

A run returns a :class:`RunResult`; :func:`verify` compares it with the
centralized reference detector and with the exact counters of the first
run of the same seed, and counts every mismatch as a failed wave (or
update, on the open-loop service workload).
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import repro
from repro.core.detector import CentralizedDetector
from repro.core.relation import Relation
from repro.service import DetectionService, ServiceError
from repro.workloads.rules import generate_cfds
from repro.workloads.tpch import TPCHGenerator

from waves import WaveGenerator

ROOT = Path(__file__).resolve().parent.parent
STATE_DIR = ROOT / ".perfbench"

N_CFDS = 12
N_SITES = 4
#: ``D`` is the same TPC-H base for every seed; the seed selects the 12
#: CFDs and the ΔD stream, including the contents of its fresh tuples.
#: Exact counters then vary across seeds by the rules and the stream
#: alone, which keeps their run-to-run spread inside the bounds.
BASE_SEED = 7
#: Open-loop submission rate of the service workload (updates/s).
SERVICE_RATE = 300.0

#: Nominal seconds of one calibration pass; see :func:`calibration_s`.
CALIBRATION_REFERENCE_S = 0.015
#: Seconds of waves between two calibration passes.
CALIBRATION_EVERY_S = 0.5
#: Times of a ``corrected`` workload are multiplied by the host's speed
#: on the calibration pass raised to this power.  On a shared 2-core host
#: the program's times moved with about the square root of the pass's:
#: in the host's fast moments the pass ran 1.9x faster and waves 1.45x,
#: and over three ten-seed sets of inchor-wave10 and incver-trickle an
#: exponent of 0.5 gave wave_p50_ms spreads of 0.05-0.17 and set medians
#: within 8%, against 0.06-0.30 and 23% for wall times and 0.05-0.32 and
#: 14% for a full correction (exponent 1).
HOST_SPEED_EXPONENT = 0.5


@dataclass(frozen=True)
class _Item:
    key: int
    flag: bool


_CALIBRATION_ITEMS = [_Item(i % 700, i % 3 == 0) for i in range(1400)]


def calibration_s() -> float:
    """Seconds for a fixed pure-Python pass of the benchmark's own (best of 3).

    The pass does the kind of work the detectors' hot loops do: attribute
    reads on small frozen objects, equality scans over a list and dict
    updates.  It runs none of the program's code, so a change to the
    program leaves it alone; its time measures the host's speed, which
    on a shared host swings by tens of percent within minutes.
    """
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        kept: list = []
        for item in _CALIBRATION_ITEMS:
            for j in range(len(kept) - 1, max(-1, len(kept) - 60), -1):
                if kept[j].key == item.key and kept[j].flag == item.flag:
                    break
            kept.append(item)
        counts: dict = {}
        for item in _CALIBRATION_ITEMS * 20:
            counts[(item.key, item.flag)] = counts.get((item.key, item.flag), 0) + 1
        best = min(best, perf_counter() - start)
    return best


@dataclass(frozen=True)
class Scale:
    """Input sizes; the self-test shrinks them, runs use the defaults."""

    base: int = 20_000
    #: Builds timed per run; ``setup_s`` is their median.
    setup_repeats: int = 3
    #: Scales every workload's ``counted_waves`` (the self-test shrinks it).
    wave_count_factor: float = 1.0
    #: Multiplies every workload's wave size (the self-test shrinks it).
    wave_factor: float = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    partition: str
    strategy: str
    storage: str
    executor: tuple
    #: Updates per closed-loop wave; 0 selects the open-loop service run.
    wave_size: int = 0
    #: Waves every run applies; the exact counters cover exactly these.
    counted_waves: int = 1
    #: Correct the times for host speed (see :data:`HOST_SPEED_EXPONENT`):
    #: only on the interpreter-bound closed loops, where it lowered the
    #: spread; where waves run in sqlite or wait on a timer it raised it.
    corrected: bool = False

    def counted(self, scale: Scale) -> int:
        return max(1, round(self.counted_waves * scale.wave_count_factor))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "inchor-wave10",
            "paper's headline ratio: incHor waves of 10% of D, where incremental "
            "must beat batch; normalize and the broadcast protocol dominate; "
            "times corrected for host speed",
            "horizontal", "incHor", "rows", ("serial", {}), 2000, 8,
            corrected=True,
        ),
        Workload(
            "incver-trickle",
            "incVer waves of 10 updates: per-wave fixed cost (dispatch, HEV eqids, "
            "projected writes, interning) dominates; normalize is negligible; "
            "times corrected for host speed",
            "vertical", "incVer", "columnar", ("serial", {}), 10, 300,
            corrected=True,
        ),
        Workload(
            "bathor-sql-threads",
            "batHor re-detection on sqlite with 2 threads: delivery, fused sql "
            "kernels, per-tuple shipment and the ΔV diff; no normalize or IDX",
            "horizontal", "batHor", "sql", ("threads", {"workers": 2}), 2000, 2,
        ),
        Workload(
            "service-open",
            "one DetectionService tenant (incHor, rows) fed single updates open-loop "
            "at 300/s: queue wait, coalescing and per-window cost set latency",
            "horizontal", "incHor", "rows", ("serial", {}), 0,
        ),
    )
}


@dataclass
class RunResult:
    workload: str
    seed: int
    scale: Scale
    setup_s: list = field(default_factory=list)
    #: Setup exact counters of every build: (bytes, messages, |V|).
    setup_counters: list = field(default_factory=list)
    #: Wall seconds of each ``apply`` (a coalesced window on the service).
    wave_s: list = field(default_factory=list)
    wave_updates: list = field(default_factory=list)
    #: Per update: seconds from when it was due to when its apply returned.
    update_latency_s: list = field(default_factory=list)
    #: After each wave (after the whole stream on the service):
    #: (bytes, messages, eqids, |V|).
    counters: list = field(default_factory=list)
    shapes: list = field(default_factory=list)
    #: Per wave: (added pairs, removed pairs) of the returned ΔV.
    deltas: list = field(default_factory=list)
    initial: set = field(default_factory=set)
    final: set = field(default_factory=set)
    reference: set = field(default_factory=set)
    initial_reference: set = field(default_factory=set)
    attempted: int = 0
    #: Attempted units that failed on their own (raised or rejected).
    raised: int = 0
    problems: list = field(default_factory=list)
    failed: int = 0
    #: (bytes, messages, eqids) on the network when the timed part began.
    network_start: tuple = (0, 0, 0)
    scheduler: tuple = ({}, {})
    #: VmHWM once the counted waves (the whole stream) are applied.
    peak_rss_mb: float = 0.0
    #: :func:`calibration_s` samples taken between builds and waves.
    calibration_s: list = field(default_factory=list)
    service: dict = field(default_factory=dict)


# -- inputs and sessions ------------------------------------------------------------------


def make_inputs(seed: int, scale: Scale):
    gen = TPCHGenerator(seed=seed)
    base = TPCHGenerator(seed=BASE_SEED).relation(scale.base)
    cfds = generate_cfds(gen.fd_specs(), N_CFDS, seed)
    return gen, base, cfds


def session_builder(workload: Workload, gen, base, cfds):
    if workload.partition == "horizontal":
        partitioner = gen.horizontal_partitioner(N_SITES)
    else:
        partitioner = gen.vertical_partitioner(N_SITES)
    name, options = workload.executor
    return (
        repro.session(base)
        .partition(partitioner)
        .rules(cfds)
        .strategy(workload.strategy)
        .storage(workload.storage)
        .executor(name, **options)
    )


def violation_pairs(violations) -> set:
    return {(tid, name) for tid in violations for name in violations.cfds_of(tid)}


def _shipped(session) -> tuple:
    stats = session.network.stats()
    return stats.bytes, stats.messages, stats.eqids_shipped


def timed_builds(result: RunResult, workload: Workload, inputs, repeats: int):
    """Build ``repeats`` sessions, timing each; keep the last one open.

    Each build starts from the same heap: the previous session is closed
    and released first, so it neither adds to the build's garbage
    collections nor to the peak RSS."""
    gen, base, cfds = inputs
    session = None
    for i in range(repeats):
        if session is not None:
            session.close()
            session = None
        gc.collect()
        if workload.corrected:
            result.calibration_s.append(calibration_s())
        builder = session_builder(workload, gen, base, cfds)
        start = perf_counter()
        session = builder.build()
        result.setup_s.append(perf_counter() - start)
        stats = session.network.stats()
        result.setup_counters.append(
            (stats.bytes, stats.messages, len(violation_pairs(session.violations)))
        )
    result.initial = violation_pairs(session.initial_violations)
    result.network_start = _shipped(session)
    return session


def _scheduler_snapshot(session) -> dict:
    return dict(session.timings().seconds_by_site)


# -- the closed-loop wave workloads ------------------------------------------------------


def run_waves(workload: Workload, seed: int, seconds: float, scale: Scale,
              tracer=None, n_waves: int | None = None, repeats: int | None = None,
              inputs=None) -> RunResult:
    """Apply waves until ``seconds`` of apply time are spent and the
    counted waves are done, or exactly ``n_waves`` when given."""
    result = RunResult(workload.name, seed, scale)
    inputs = inputs or make_inputs(seed, scale)
    gen, base, cfds = inputs
    waves = WaveGenerator(gen, base, seed)
    size = max(1, round(workload.wave_size * scale.wave_factor))
    if tracer is not None:
        tracer.phase = "setup"
        tracer.enabled = True
    session = timed_builds(result, workload, inputs, repeats or scale.setup_repeats)
    if tracer is not None:
        tracer.enabled = False
        tracer.phase = "apply"
    busy_before = _scheduler_snapshot(session)
    gc.collect()
    spent = 0.0
    calibrated_at = -CALIBRATION_EVERY_S
    try:
        while True:
            if n_waves is not None and len(result.wave_s) >= n_waves:
                break
            if (n_waves is None and spent >= seconds
                    and len(result.wave_s) >= workload.counted(scale)):
                break
            if workload.corrected and spent - calibrated_at >= CALIBRATION_EVERY_S:
                result.calibration_s.append(calibration_s())
                calibrated_at = spent
            batch, shape = waves.wave(size)
            result.attempted += 1
            if tracer is not None:
                tracer.enabled = True
            start = perf_counter()
            try:
                delta = session.apply(batch)
            except Exception as exc:  # noqa: BLE001 - a failed wave is a result
                result.raised += 1
                result.problems.append(f"wave {len(result.wave_s)} raised {exc!r}")
                break
            finally:
                elapsed = perf_counter() - start
                if tracer is not None:
                    tracer.enabled = False
            spent += elapsed
            result.wave_s.append(elapsed)
            result.wave_updates.append(len(batch))
            result.update_latency_s.extend([elapsed] * len(batch))
            result.shapes.append(shape)
            result.deltas.append((list(delta.added_pairs()), list(delta.removed_pairs())))
            result.counters.append((*_shipped(session), len(session.violations)))
            if len(result.counters) == workload.counted(scale):
                result.peak_rss_mb = peak_rss_mb()
        result.final = violation_pairs(session.violations)
        result.scheduler = (busy_before, _scheduler_snapshot(session))
    finally:
        session.close()
    result.reference = violation_pairs(
        CentralizedDetector(cfds).detect(Relation(base.schema, waves.live_tuples()))
    )
    result.initial_reference = violation_pairs(CentralizedDetector(cfds).detect(base))
    return result


# -- the open-loop service workload ------------------------------------------------------


def run_service(workload: Workload, seed: int, seconds: float, scale: Scale,
                tracer=None, repeats: int | None = None, inputs=None) -> RunResult:
    """Submit ``SERVICE_RATE * seconds`` single updates on a fixed schedule."""
    result = RunResult(workload.name, seed, scale)
    inputs = inputs or make_inputs(seed, scale)
    gen, base, cfds = inputs
    waves = WaveGenerator(gen, base, seed, same_tid_share=0.0)
    n_updates = max(1, int(SERVICE_RATE * seconds))
    # One draw of singles: no tid repeats, so no window boundary can change
    # what normalization cancels, and the exact counters stay exact.
    updates = list(waves.wave(n_updates)[0])
    if tracer is not None:
        tracer.phase = "setup"
        tracer.enabled = True
    session = timed_builds(result, workload, inputs, repeats or scale.setup_repeats)
    if tracer is not None:
        tracer.phase = "apply"

    windows: list = []
    inner_apply = session.apply

    def recording_apply(batch):
        start = perf_counter()
        delta = inner_apply(batch)
        end = perf_counter()
        windows.append((start, end, len(batch)))
        result.deltas.append((list(delta.added_pairs()), list(delta.removed_pairs())))
        return delta

    session.apply = recording_apply
    service = DetectionService()
    accepted: list[int] = []
    submitted_at: list[float] = []
    late: list[float] = []
    due0 = 0.0
    try:
        service.register("tenant", session)
        busy_before = _scheduler_snapshot(session)
        gc.collect()
        due0 = perf_counter() + 0.01
        for i, update in enumerate(updates):
            due = due0 + i / SERVICE_RATE
            wait = due - perf_counter()
            if wait > 0:
                time.sleep(wait)
            now = perf_counter()
            late.append(now - due)
            try:
                outcome = service.submit("tenant", update)
            except ServiceError as exc:
                result.problems.append(f"submit {i} raised {exc!r}")
                break
            if outcome.accepted:
                accepted.append(i)
                submitted_at.append(now)
        try:
            service.flush(timeout=300)
        except ServiceError as exc:
            result.problems.append(f"flush raised {exc!r}")
        metrics = service.metrics("tenant")
        result.final = violation_pairs(session.violations)
        result.counters.append((*_shipped(session), len(session.violations)))
        result.peak_rss_mb = peak_rss_mb()
        result.scheduler = (busy_before, _scheduler_snapshot(session))
    finally:
        if tracer is not None:
            tracer.enabled = False
        service.close()

    result.attempted = n_updates
    result.raised = n_updates - len(accepted)
    if result.raised:
        result.problems.append(f"{result.raised} updates rejected by admission")
    ends: list[float] = []
    starts: list[float] = []
    for start, end, count in windows:
        result.wave_s.append(end - start)
        result.wave_updates.append(count)
        ends.extend([end] * count)
        starts.extend([start] * count)
    if len(ends) != len(accepted):
        result.problems.append(
            f"applied {len(ends)} updates but {len(accepted)} were accepted"
        )
    pairs = list(zip(accepted, ends, starts, submitted_at))
    result.update_latency_s = [end - (due0 + i / SERVICE_RATE) for i, end, _s, _t in pairs]
    result.service = {
        "queue_wait_s": [start - sub for _i, _e, start, sub in pairs],
        "late_s": late,
        "backlog_max": metrics.max_queue_depth,
        "updates": n_updates,
    }
    kept = {updates[i].tid for i in accepted}
    live = {t.tid: t for t in base}
    for update in updates:
        if update.tid in kept:
            if update.is_insert():
                live[update.tid] = update.tuple
            else:
                live.pop(update.tid, None)
    result.reference = violation_pairs(
        CentralizedDetector(cfds).detect(Relation(base.schema, live.values()))
    )
    result.initial_reference = violation_pairs(CentralizedDetector(cfds).detect(base))
    return result


def run(workload: Workload, seed: int, seconds: float, scale: Scale, **kwargs) -> RunResult:
    if workload.wave_size:
        return run_waves(workload, seed, seconds, scale, **kwargs)
    kwargs.pop("n_waves", None)
    return run_service(workload, seed, seconds, scale, **kwargs)


# -- checks -------------------------------------------------------------------------------


_fingerprint: str | None = None


def program_fingerprint() -> str:
    """Hash of the program's and the benchmark's sources, uncommitted
    edits included, so that exact counters are only compared between
    runs of the same code."""
    global _fingerprint
    if _fingerprint is None:
        digest = hashlib.sha256()
        for directory in (ROOT / "src" / "repro", Path(__file__).resolve().parent):
            for path in sorted(directory.rglob("*.py")):
                digest.update(path.relative_to(ROOT).as_posix().encode())
                digest.update(b"\0")
                digest.update(path.read_bytes())
        _fingerprint = digest.hexdigest()[:16]
    return _fingerprint


def _record_path(result: RunResult) -> Path:
    s = result.scale
    key = (f"{result.workload}-seed{result.seed}-base{s.base}-x{s.wave_factor:g}"
           f"-{program_fingerprint()}")
    if result.service:
        key += f"-n{result.service['updates']}"
    return STATE_DIR / "counters" / f"{key}.json"


def exact_counters(result: RunResult) -> dict:
    return {"setup": list(result.setup_counters[0]) if result.setup_counters else [],
            "waves": [list(c) for c in result.counters]}


def check_counters(result: RunResult, record: dict | None) -> list:
    """Findings ``(problem, failed wave indexes or None for all)`` from the
    exact counters: set-up builds must agree, and so must the first run."""
    findings: list = []
    first = result.setup_counters[0] if result.setup_counters else None
    for i, counters in enumerate(result.setup_counters[1:], start=1):
        if counters != first:
            findings.append((f"setup build {i} counters {counters} != {first}", None))
    if record is None:
        return findings
    mine = exact_counters(result)
    if record["setup"] and mine["setup"] and record["setup"] != mine["setup"]:
        findings.append((f"setup counters {mine['setup']} != first run {record['setup']}", None))
    differ = {i for i, (theirs, ours) in enumerate(zip(record["waves"], mine["waves"]))
              if theirs != ours}
    if differ:
        findings.append((f"exact counters differ from the first run at waves {sorted(differ)}",
                         differ))
    return findings


def check_reference(result: RunResult) -> list:
    """Findings ``(problem, failed wave indexes or None for all)`` from the
    ΔV chain and the centralized reference detector."""
    findings: list = []
    if result.initial != result.initial_reference:
        findings.append(("initial V differs from the centralized reference on the base", None))
    chain = set(result.initial)
    inconsistent = set()
    for i, (added, removed) in enumerate(result.deltas):
        removed_set = set(removed)
        if not removed_set <= chain or any(
            pair in chain and pair not in removed_set for pair in added
        ):
            inconsistent.add(i)
        chain -= removed_set
        chain.update(added)
    if inconsistent:
        findings.append((f"ΔV inconsistent with the running V at waves {sorted(inconsistent)}",
                         inconsistent))
    if chain != result.final:
        findings.append((f"initial V + every ΔV ({len(chain)} pairs) != final V "
                         f"({len(result.final)} pairs)", None))
    if result.final != result.reference:
        findings.append((f"final V ({len(result.final)} pairs) != centralized reference "
                         f"({len(result.reference)} pairs)", None))
    return findings


def verify(result: RunResult, record: dict | None = None) -> RunResult:
    """Fill ``problems`` and ``failed``.  A finding that cannot be pinned to
    waves fails every attempted unit; so does any finding on the service,
    whose windows are not units the benchmark scheduled."""
    findings = check_reference(result) + check_counters(result, record)
    result.problems = result.problems + [problem for problem, _ in findings]
    if any(waves is None for _, waves in findings) or (result.service and findings):
        result.failed = result.attempted
    else:
        pinned = set().union(*(waves for _, waves in findings))
        result.failed = min(result.attempted, result.raised + len(pinned))
    return result


def load_record(result: RunResult) -> dict | None:
    path = _record_path(result)
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        return None


def save_record(result: RunResult, record: dict | None) -> None:
    """Keep the first run's counters; extend them with waves it lacked."""
    mine = exact_counters(result)
    if record is not None:
        if len(record["waves"]) >= len(mine["waves"]):
            return
        mine["waves"] = record["waves"] + mine["waves"][len(record["waves"]):]
        mine["setup"] = record["setup"] or mine["setup"]
    path = _record_path(result)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(mine))
    os.replace(tmp, path)


# -- metrics ------------------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


def host_speed(result: RunResult) -> float:
    """How much faster than nominal the host ran the calibration pass."""
    return CALIBRATION_REFERENCE_S / percentile(result.calibration_s, 50)


def end_to_end(result: RunResult) -> dict:
    """Every end-to-end metric of an untraced run, by name.

    Times are wall times, multiplied on a ``corrected`` workload by
    ``host_speed ** HOST_SPEED_EXPONENT``.
    """
    factor = 1.0
    if WORKLOADS[result.workload].corrected:
        factor = host_speed(result) ** HOST_SPEED_EXPONENT
    return {
        "setup_s": (percentile(result.setup_s, 50) * factor, "s"),
        "updates_per_s": (sum(result.wave_updates) / sum(result.wave_s) / factor, "1/s"),
        "wave_p50_ms": (percentile(result.wave_s, 50) * factor * 1e3, "ms"),
        "update_p50_ms": (percentile(result.update_latency_s, 50) * factor * 1e3, "ms"),
        "peak_rss_mb": (result.peak_rss_mb, "MB"),
    }


def shipped_per_update(result: RunResult, workload: Workload, scale: Scale) -> tuple:
    """Exact (bytes, messages) shipped per update over the counted waves
    (the whole stream on the service), so that they do not depend on how
    many more waves a fast machine fits in."""
    if result.service:
        counted_updates = result.service["updates"]
        final = result.counters[-1]
    else:
        k = min(workload.counted(scale), len(result.counters))
        counted_updates = sum(result.wave_updates[:k])
        final = result.counters[k - 1]
    start = result.network_start
    return ((final[0] - start[0]) / counted_updates, (final[1] - start[1]) / counted_updates)
