"""Strategy adapters: every detector of the repository behind one protocol.

The incremental detectors already maintain violations under ``apply``;
their adapters are thin delegation shims.  The batch baselines have no
incremental mode of their own — their adapters satisfy ``apply`` by
re-running detection over the updated database and diffing against the
previous violation set, which is exactly what deploying a batch detector
against a live update stream costs (and why the paper's incremental
algorithms win).

``register_builtin_strategies`` wires all of them, plus the built-in
partition schemes, into a :class:`~repro.engine.registry.StrategyRegistry`.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.core.cfd import CFD
from repro.core.detector import CentralizedDetector
from repro.core.relation import Relation
from repro.core.updates import UpdateBatch
from repro.core.violations import ViolationDelta, ViolationSet, diff_violations
from repro.distributed.cluster import Cluster
from repro.distributed.network import Network, NetworkStats
from repro.engine.adaptive import AdaptiveStrategy
from repro.engine.protocol import SingleSite, StrategyState
from repro.engine.registry import StrategyRegistry
from repro.planner.estimators import (
    Estimate,
    estimate_batch,
    estimate_improved_batch,
    estimate_incremental,
)
from repro.horizontal.bathor import HorizontalBatchDetector
from repro.horizontal.ibathor import ImprovedHorizontalBatchDetector
from repro.horizontal.inchor import HorizontalIncrementalDetector
from repro.indexes.hev import HEVPlan
from repro.indexes.planner import HEVPlanner
from repro.partition.horizontal import HorizontalPartitioner, hash_horizontal_scheme
from repro.partition.replication import ReplicationScheme
from repro.partition.vertical import VerticalPartitioner, even_vertical_scheme
from repro.similarity.detector import MDDetector
from repro.similarity.incremental import IncrementalMDDetector
from repro.vertical.batver import VerticalBatchDetector
from repro.vertical.ibatver import ImprovedVerticalBatchDetector
from repro.vertical.incver import VerticalIncrementalDetector


class StrategyStateError(RuntimeError):
    """Raised when a strategy is used before ``setup`` bound it."""


class _BaseStrategy:
    """Shared deployment bookkeeping for all adapters."""

    def __init__(self) -> None:
        self.deployment: Any = None

    def _require_setup(self) -> None:
        if self.deployment is None:
            raise StrategyStateError(
                f"{type(self).__name__} has not been set up; call setup() first"
            )

    @property
    def network(self) -> Network:
        """The network this strategy charges its shipments to."""
        self._require_setup()
        return self.deployment.network

    def cost_stats(self) -> NetworkStats:
        return self.network.stats()


def _require_vertical(deployment: Any) -> Cluster:
    if not isinstance(deployment, Cluster) or not deployment.is_vertical():
        raise ValueError("this strategy requires a vertically partitioned cluster")
    return deployment


def _require_horizontal(deployment: Any) -> Cluster:
    if not isinstance(deployment, Cluster) or not deployment.is_horizontal():
        raise ValueError("this strategy requires a horizontally partitioned cluster")
    return deployment


def _require_single(deployment: Any) -> SingleSite:
    if not isinstance(deployment, SingleSite):
        raise ValueError("this strategy requires an unpartitioned (single-site) relation")
    return deployment


# -- incremental strategies (thin delegation) ------------------------------------------------


class VerticalIncrementalStrategy(_BaseStrategy):
    """``incVer`` (Fig. 5).  ``optimize=True`` wires the ``optVer`` HEV planner."""

    def __init__(
        self,
        plan: HEVPlan | None = None,
        optimize: bool = False,
        beam_width: int = 4,
    ):
        super().__init__()
        self._plan = plan
        self._optimize = optimize
        self._beam_width = beam_width
        self._detector: VerticalIncrementalDetector | None = None

    def setup(self, deployment: Any, rules: Iterable[CFD]) -> ViolationSet:
        cluster = _require_vertical(deployment)
        planner = None
        if self._optimize and self._plan is None:
            partitioner = cluster.vertical_partitioner
            planner = HEVPlanner(
                partitioner, ReplicationScheme(partitioner), beam_width=self._beam_width
            )
        self._detector = VerticalIncrementalDetector(
            cluster, rules, plan=self._plan, planner=planner
        )
        self.deployment = cluster
        return self._detector.violations

    def apply(self, batch: UpdateBatch) -> ViolationDelta:
        self._require_setup()
        return self._detector.apply(batch)

    @property
    def violations(self) -> ViolationSet:
        self._require_setup()
        return self._detector.violations

    @property
    def plan(self) -> HEVPlan:
        """The HEV plan in use (naive chains unless optimized or supplied)."""
        self._require_setup()
        return self._detector.plan

    # -- planner hooks -------------------------------------------------------------

    def cost_estimate(self, stats: Any, profile: Any) -> Estimate:
        """``O(|delta-D| + |delta-V|)`` work and eqid shipment (Prop. 6)."""
        return estimate_incremental(stats, profile, "incVer")

    def export_state(self) -> StrategyState:
        """Deployment fragments are maintained in place, so they are current."""
        self._require_setup()
        return StrategyState(self._detector.violations.copy(), None, self.deployment)

    def migrate(self, result: Any, rules: Iterable[CFD]) -> None:
        """Warm re-homing after the deployment migrated in place.

        The detector keeps its logical IDX indices and violations; only
        placement metadata (classification, HEV plan, coordinators) is
        re-derived.  A caller-supplied HEV plan referencing the old
        topology is discarded in favour of a re-planned one.
        """
        self._require_setup()
        cluster = _require_vertical(self.deployment)
        self._plan = None
        planner = None
        if self._optimize:
            partitioner = cluster.vertical_partitioner
            planner = HEVPlanner(
                partitioner, ReplicationScheme(partitioner), beam_width=self._beam_width
            )
        self._detector.rehome(cluster, planner=planner)

    def import_state(self, state: StrategyState, rules: Iterable[CFD]) -> ViolationSet:
        """Warm handoff: rebuild the IDX/HEV indices over the current data,
        seeding the violations instead of re-detecting them."""
        cluster = _require_vertical(state.deployment)
        if state.relation is not None:
            # The exporter maintained the logical relation, not the
            # fragments — re-fragment locally (no shipment is charged).
            cluster = Cluster.from_vertical(
                cluster.vertical_partitioner,
                state.relation,
                network=cluster.network,
                scheduler=cluster.scheduler,
            )
        planner = None
        if self._optimize and self._plan is None:
            partitioner = cluster.vertical_partitioner
            planner = HEVPlanner(
                partitioner, ReplicationScheme(partitioner), beam_width=self._beam_width
            )
        self._detector = VerticalIncrementalDetector(
            cluster,
            rules,
            plan=self._plan,
            planner=planner,
            violations=state.violations,
        )
        self.deployment = cluster
        return self._detector.violations


class HorizontalIncrementalStrategy(_BaseStrategy):
    """``incHor`` (Fig. 8)."""

    def __init__(self, use_md5: bool = True):
        super().__init__()
        self._use_md5 = use_md5
        self._detector: HorizontalIncrementalDetector | None = None

    def setup(self, deployment: Any, rules: Iterable[CFD]) -> ViolationSet:
        cluster = _require_horizontal(deployment)
        self._detector = HorizontalIncrementalDetector(
            cluster, rules, use_md5=self._use_md5
        )
        self.deployment = cluster
        return self._detector.violations

    def apply(self, batch: UpdateBatch) -> ViolationDelta:
        self._require_setup()
        return self._detector.apply(batch)

    @property
    def violations(self) -> ViolationSet:
        self._require_setup()
        return self._detector.violations

    # -- planner hooks -------------------------------------------------------------

    def cost_estimate(self, stats: Any, profile: Any) -> Estimate:
        """``O(|delta-D| + |delta-V|)`` work and fingerprint shipment (Prop. 8)."""
        return estimate_incremental(stats, profile, "incHor")

    def export_state(self) -> StrategyState:
        """Deployment fragments are maintained in place, so they are current."""
        self._require_setup()
        return StrategyState(self._detector.violations.copy(), None, self.deployment)

    def migrate(self, result: Any, rules: Iterable[CFD]) -> None:
        """Warm re-homing: per-site index slices follow the moved tuples.

        ``result.moved`` drives an O(|moved| x |CFDs|) relocation of
        index rows; nothing is re-detected and no index is rebuilt.
        """
        self._require_setup()
        cluster = _require_horizontal(self.deployment)
        self._detector.rehome(cluster, result.moved)

    def import_state(self, state: StrategyState, rules: Iterable[CFD]) -> ViolationSet:
        """Warm handoff: rebuild the per-site indices, seeding the violations."""
        cluster = _require_horizontal(state.deployment)
        if state.relation is not None:
            cluster = Cluster.from_horizontal(
                cluster.horizontal_partitioner,
                state.relation,
                network=cluster.network,
                scheduler=cluster.scheduler,
            )
        self._detector = HorizontalIncrementalDetector(
            cluster,
            rules,
            violations=state.violations,
            use_md5=self._use_md5,
        )
        self.deployment = cluster
        return self._detector.violations


# -- batch baselines (re-detect and diff) ----------------------------------------------------


class _BatchRedetectStrategy(_BaseStrategy):
    """Shared machinery: deliver the batch into the live fragments, re-detect.

    Updates are applied straight to the deployment's fragments (free, per
    the paper's delta-delivery convention) so the fragment objects — and
    any warm executor state resident against their stores — survive from
    batch to batch; only the re-detection itself is charged.
    """

    def __init__(self) -> None:
        super().__init__()
        self._rules: list[CFD] = []
        self._violations = ViolationSet()

    def _detect(self) -> ViolationSet:  # pragma: no cover - abstract
        raise NotImplementedError

    def _refragment(
        self, cluster: Cluster, relation: Relation
    ) -> Cluster:  # pragma: no cover - abstract
        raise NotImplementedError

    def apply(self, batch: UpdateBatch) -> ViolationDelta:
        self._require_setup()
        if len(batch) == 0:
            # Nothing changed: re-detecting would ship the whole database
            # for an identical violation set.
            return ViolationDelta()
        self.deployment.deliver_updates(batch)
        new = self._detect()
        delta = diff_violations(self._violations, new)
        self._violations = new
        return delta

    @property
    def violations(self) -> ViolationSet:
        return self._violations

    # -- planner hooks -------------------------------------------------------------

    def migrate(self, result: Any, rules: Iterable[CFD]) -> None:
        """The deployment migrated in place and its fragments are current
        (updates are delivered to them directly): nothing to re-home."""
        self._require_setup()

    def export_state(self) -> StrategyState:
        """Deployment fragments are maintained in place, so they are current."""
        self._require_setup()
        return StrategyState(self._violations.copy(), None, self.deployment)

    def import_state(self, state: StrategyState, rules: Iterable[CFD]) -> ViolationSet:
        """Adopt the current data and violations; re-detect only on ``apply``."""
        self._rules = list(rules)
        deployment = state.deployment
        if state.relation is not None:
            # The exporter maintained the logical relation, not the
            # fragments — re-fragment locally (no shipment is charged).
            deployment = self._refragment(deployment, state.relation)
        self.deployment = deployment
        self._violations = state.violations.copy()
        return self._violations


class VerticalBatchStrategy(_BatchRedetectStrategy):
    """``batVer``: re-fragment and re-detect from scratch on every batch."""

    def setup(self, deployment: Any, rules: Iterable[CFD]) -> ViolationSet:
        cluster = _require_vertical(deployment)
        self._rules = list(rules)
        self.deployment = cluster
        self._violations = self._detect()
        return self._violations

    def _refragment(self, cluster: Cluster, relation: Relation) -> Cluster:
        return Cluster.from_vertical(
            cluster.vertical_partitioner,
            relation,
            network=cluster.network,
            scheduler=cluster.scheduler,
        )

    def _detect(self) -> ViolationSet:
        return VerticalBatchDetector(self.deployment, self._rules).detect()

    def cost_estimate(self, stats: Any, profile: Any) -> Estimate:
        """Full recomputation: ``O(|D (+) delta-D|)`` shipment and scans."""
        return estimate_batch(stats, profile, "batVer")


class HorizontalBatchStrategy(_BatchRedetectStrategy):
    """``batHor``: re-fragment and re-detect from scratch on every batch."""

    def setup(self, deployment: Any, rules: Iterable[CFD]) -> ViolationSet:
        cluster = _require_horizontal(deployment)
        self._rules = list(rules)
        self.deployment = cluster
        self._violations = self._detect()
        return self._violations

    def _refragment(self, cluster: Cluster, relation: Relation) -> Cluster:
        return Cluster.from_horizontal(
            cluster.horizontal_partitioner,
            relation,
            network=cluster.network,
            scheduler=cluster.scheduler,
        )

    def _detect(self) -> ViolationSet:
        return HorizontalBatchDetector(self.deployment, self._rules).detect()

    def cost_estimate(self, stats: Any, profile: Any) -> Estimate:
        """Full recomputation: ``O(|D (+) delta-D|)`` shipment and scans."""
        return estimate_batch(stats, profile, "batHor")


class ImprovedVerticalBatchStrategy(_BaseStrategy):
    """``ibatVer`` (Exp-10): rebuild ``V`` by incremental insertion from empty.

    Setup computes the initial violations with the (free) centralized
    reference so that only the per-batch rebuilds — the cost Exp-10
    actually measures — are charged to the strategy's network.
    """

    def __init__(self, plan: HEVPlan | None = None):
        super().__init__()
        self._plan = plan
        self._detector: ImprovedVerticalBatchDetector | None = None
        self._base: Relation | None = None
        self._violations = ViolationSet()

    def setup(self, deployment: Any, rules: Iterable[CFD]) -> ViolationSet:
        cluster = _require_vertical(deployment)
        self._base = cluster.reconstruct()
        self._detector = ImprovedVerticalBatchDetector(
            cluster.vertical_partitioner, rules, plan=self._plan
        )
        self._violations = CentralizedDetector(list(rules)).detect(self._base)
        self.deployment = cluster
        return self._violations

    def apply(self, batch: UpdateBatch) -> ViolationDelta:
        self._require_setup()
        if len(batch) == 0:
            return ViolationDelta()
        final = batch.apply_to(self._base)
        new = self._detector.detect(final)
        self._base = final
        delta = diff_violations(self._violations, new)
        self._violations = new
        return delta

    @property
    def violations(self) -> ViolationSet:
        return self._violations

    @property
    def network(self) -> Network:
        """The rebuild ships over the wrapped detector's own network."""
        self._require_setup()
        return self._detector.network

    # -- planner hooks -------------------------------------------------------------

    def cost_estimate(self, stats: Any, profile: Any) -> Estimate:
        """``O(|D| + |delta-D|)``: incremental insertion from empty (Exp-10)."""
        return estimate_improved_batch(stats, profile, "ibatVer")

    def migrate(self, result: Any, rules: Iterable[CFD]) -> None:
        """Rebind the rebuild detector to the migrated partitioner.

        ``_base`` and the violations stay warm; only the wrapped
        detector — which re-fragments per batch anyway — is recreated
        against the new layout, charging the shared session ledger.
        Costs already accrued on a private ledger move over with it.
        """
        self._require_setup()
        cluster = _require_vertical(self.deployment)
        if self._detector.network is not cluster.network:
            cluster.network.absorb(self._detector.network.stats())
        self._plan = None
        self._detector = ImprovedVerticalBatchDetector(
            cluster.vertical_partitioner,
            rules,
            network=cluster.network,
        )

    def export_state(self) -> StrategyState:
        """``_base`` is authoritative; the deployment fragments are stale."""
        self._require_setup()
        return StrategyState(self._violations.copy(), self._base, self.deployment)

    def import_state(self, state: StrategyState, rules: Iterable[CFD]) -> ViolationSet:
        """Adopt the current data; rebuilds charge the shared session ledger."""
        cluster = _require_vertical(state.deployment)
        self._base = (
            state.relation if state.relation is not None else cluster.reconstruct()
        )
        self._detector = ImprovedVerticalBatchDetector(
            cluster.vertical_partitioner,
            rules,
            plan=self._plan,
            network=cluster.network,
        )
        self._violations = state.violations.copy()
        self.deployment = cluster
        return self._violations


class ImprovedHorizontalBatchStrategy(_BaseStrategy):
    """``ibatHor`` (Exp-10): the horizontal flavour of the improved baseline."""

    def __init__(self, use_md5: bool = True):
        super().__init__()
        self._use_md5 = use_md5
        self._detector: ImprovedHorizontalBatchDetector | None = None
        self._base: Relation | None = None
        self._violations = ViolationSet()

    def setup(self, deployment: Any, rules: Iterable[CFD]) -> ViolationSet:
        cluster = _require_horizontal(deployment)
        self._base = cluster.reconstruct()
        self._detector = ImprovedHorizontalBatchDetector(
            cluster.horizontal_partitioner,
            rules,
            use_md5=self._use_md5,
        )
        self._violations = CentralizedDetector(list(rules)).detect(self._base)
        self.deployment = cluster
        return self._violations

    def apply(self, batch: UpdateBatch) -> ViolationDelta:
        self._require_setup()
        if len(batch) == 0:
            return ViolationDelta()
        final = batch.apply_to(self._base)
        new = self._detector.detect(final)
        self._base = final
        delta = diff_violations(self._violations, new)
        self._violations = new
        return delta

    @property
    def violations(self) -> ViolationSet:
        return self._violations

    @property
    def network(self) -> Network:
        """The rebuild ships over the wrapped detector's own network."""
        self._require_setup()
        return self._detector.network

    # -- planner hooks -------------------------------------------------------------

    def cost_estimate(self, stats: Any, profile: Any) -> Estimate:
        """``O(|D| + |delta-D|)``: incremental insertion from empty (Exp-10)."""
        return estimate_improved_batch(stats, profile, "ibatHor")

    def migrate(self, result: Any, rules: Iterable[CFD]) -> None:
        """Rebind the rebuild detector to the migrated partitioner
        (``_base``, the violations and the accrued costs stay warm)."""
        self._require_setup()
        cluster = _require_horizontal(self.deployment)
        if self._detector.network is not cluster.network:
            cluster.network.absorb(self._detector.network.stats())
        self._detector = ImprovedHorizontalBatchDetector(
            cluster.horizontal_partitioner,
            rules,
            use_md5=self._use_md5,
            network=cluster.network,
        )

    def export_state(self) -> StrategyState:
        """``_base`` is authoritative; the deployment fragments are stale."""
        self._require_setup()
        return StrategyState(self._violations.copy(), self._base, self.deployment)

    def import_state(self, state: StrategyState, rules: Iterable[CFD]) -> ViolationSet:
        """Adopt the current data; rebuilds charge the shared session ledger."""
        cluster = _require_horizontal(state.deployment)
        self._base = (
            state.relation if state.relation is not None else cluster.reconstruct()
        )
        self._detector = ImprovedHorizontalBatchDetector(
            cluster.horizontal_partitioner,
            rules,
            use_md5=self._use_md5,
            network=cluster.network,
        )
        self._violations = state.violations.copy()
        self.deployment = cluster
        return self._violations


# -- single-site strategies ------------------------------------------------------------------


class CentralizedStrategy(_BaseStrategy):
    """The SQL-style centralized reference detector, re-run per batch."""

    def __init__(self) -> None:
        super().__init__()
        self._detector: CentralizedDetector | None = None
        self._violations = ViolationSet()
        self._owns_relation = False

    def setup(self, deployment: Any, rules: Iterable[CFD]) -> ViolationSet:
        store = _require_single(deployment)
        self._detector = CentralizedDetector(rules, scheduler=store.scheduler)
        self._violations = self._detector.detect(store.relation)
        self.deployment = store
        self._owns_relation = False
        return self._violations

    def apply(self, batch: UpdateBatch) -> ViolationDelta:
        self._require_setup()
        if len(batch) == 0:
            return ViolationDelta()
        if not self._owns_relation:
            # Copy the caller's relation once, then deliver every later
            # batch in place so the store object (and any warm executor
            # residency against it) survives across batches.
            self.deployment.relation = self.deployment.relation.copy()
            self._owns_relation = True
        batch.apply_in_place(self.deployment.relation)
        new = self._detector.detect(self.deployment.relation)
        delta = diff_violations(self._violations, new)
        self._violations = new
        return delta

    @property
    def violations(self) -> ViolationSet:
        return self._violations

    # -- planner hooks -------------------------------------------------------------

    def cost_estimate(self, stats: Any, profile: Any) -> Estimate:
        """Re-detection over the whole updated database (no shipment)."""
        return estimate_batch(stats, profile, "centralized")

    def export_state(self) -> StrategyState:
        self._require_setup()
        return StrategyState(
            self._violations.copy(), self.deployment.relation, self.deployment
        )

    def import_state(self, state: StrategyState, rules: Iterable[CFD]) -> ViolationSet:
        store = _require_single(state.deployment)
        if state.relation is not None:
            store.relation = state.relation
        self._detector = CentralizedDetector(rules, scheduler=store.scheduler)
        self._violations = state.violations.copy()
        self.deployment = store
        self._owns_relation = False
        return self._violations


class MDBatchStrategy(_BaseStrategy):
    """Matching-dependency batch detection, re-run per batch."""

    def __init__(self, use_blocking: bool = True):
        super().__init__()
        self._use_blocking = use_blocking
        self._detector: MDDetector | None = None
        self._violations = ViolationSet()
        self._owns_relation = False

    def setup(self, deployment: Any, rules: Iterable[Any]) -> ViolationSet:
        store = _require_single(deployment)
        self._detector = MDDetector(
            rules, use_blocking=self._use_blocking, scheduler=store.scheduler
        )
        self._violations = self._detector.detect(store.relation)
        self.deployment = store
        self._owns_relation = False
        return self._violations

    def apply(self, batch: UpdateBatch) -> ViolationDelta:
        self._require_setup()
        if len(batch) == 0:
            return ViolationDelta()
        if not self._owns_relation:
            # Copy once, then deliver in place (see CentralizedStrategy).
            self.deployment.relation = self.deployment.relation.copy()
            self._owns_relation = True
        batch.apply_in_place(self.deployment.relation)
        new = self._detector.detect(self.deployment.relation)
        delta = diff_violations(self._violations, new)
        self._violations = new
        return delta

    @property
    def violations(self) -> ViolationSet:
        return self._violations

    # -- planner hooks -------------------------------------------------------------

    def cost_estimate(self, stats: Any, profile: Any) -> Estimate:
        """Pairwise re-matching over the whole updated database."""
        return estimate_batch(stats, profile, "md")

    def export_state(self) -> StrategyState:
        self._require_setup()
        return StrategyState(
            self._violations.copy(), self.deployment.relation, self.deployment
        )

    def import_state(self, state: StrategyState, rules: Iterable[Any]) -> ViolationSet:
        store = _require_single(state.deployment)
        if state.relation is not None:
            store.relation = state.relation
        self._detector = MDDetector(
            rules, use_blocking=self._use_blocking, scheduler=store.scheduler
        )
        self._violations = state.violations.copy()
        self.deployment = store
        self._owns_relation = False
        return self._violations


class MDIncrementalStrategy(_BaseStrategy):
    """Incremental matching-dependency detection (blocking index + counts)."""

    def __init__(self) -> None:
        super().__init__()
        self.inner: IncrementalMDDetector | None = None

    def setup(self, deployment: Any, rules: Iterable[Any]) -> ViolationSet:
        store = _require_single(deployment)
        self.inner = IncrementalMDDetector(store.relation, rules)
        self.deployment = store
        return self.inner.violations

    def apply(self, batch: UpdateBatch) -> ViolationDelta:
        self._require_setup()
        return self.inner.apply(batch)

    @property
    def violations(self) -> ViolationSet:
        self._require_setup()
        return self.inner.violations

    # -- planner hooks -------------------------------------------------------------

    def cost_estimate(self, stats: Any, profile: Any) -> Estimate:
        """``O(|delta-D| x blocking candidates)`` matching work."""
        return estimate_incremental(stats, profile, "incMD")

    def export_state(self) -> StrategyState:
        """Materialize the maintained tuples back into a relation."""
        self._require_setup()
        template = self.deployment.relation
        relation = Relation(
            template.schema, self.inner.current_tuples(), storage=template.storage
        )
        return StrategyState(self.inner.violations.copy(), relation, self.deployment)

    def import_state(self, state: StrategyState, rules: Iterable[Any]) -> ViolationSet:
        """Rebuild the blocking indices and partner counts over the data."""
        store = _require_single(state.deployment)
        if state.relation is not None:
            store.relation = state.relation
        self.inner = IncrementalMDDetector(store.relation, rules)
        self.deployment = store
        return self.inner.violations

    # Diagnostics forwarded from the wrapped detector.

    def candidate_count(self, md_name: str, t: Any) -> int:
        self._require_setup()
        return self.inner.candidate_count(md_name, t)

    def partner_count(self, md_name: str, tid: Any) -> int:
        self._require_setup()
        return self.inner.partner_count(md_name, tid)

    def __len__(self) -> int:
        self._require_setup()
        return len(self.inner)


# -- built-in partition scheme factories ------------------------------------------------------


def _build_vertical_partitioner(
    schema: Any,
    fragments: Sequence[Any] | None = None,
    n_fragments: int | None = None,
    replicate: Any | None = None,
) -> VerticalPartitioner:
    """Explicit fragments, or an even spread over ``n_fragments`` sites."""
    if fragments is not None:
        return VerticalPartitioner(schema, fragments)
    return even_vertical_scheme(schema, n_fragments or 2, replicate)


def _build_horizontal_partitioner(
    schema: Any,
    fragments: Sequence[Any] | None = None,
    n_fragments: int | None = None,
    attribute: str | None = None,
) -> HorizontalPartitioner:
    """Explicit predicate fragments, or key-hash buckets over ``n_fragments``."""
    if fragments is not None:
        return HorizontalPartitioner(schema, fragments)
    return hash_horizontal_scheme(schema, n_fragments or 2, attribute)


# -- registration -----------------------------------------------------------------------------


def register_builtin_strategies(registry: StrategyRegistry) -> None:
    """Wire every built-in detector and partition scheme into ``registry``."""
    registry.register_detector(
        "incVer",
        VerticalIncrementalStrategy,
        partitioning="vertical",
        mode="incremental",
        description="incremental CFD detection over vertical fragments (Fig. 5)",
    )
    registry.register_detector(
        "optVer",
        lambda **options: VerticalIncrementalStrategy(optimize=True, **options),
        partitioning="vertical",
        mode="optimized",
        description="incVer with the optVer HEV-placement plan (Section 5)",
    )
    registry.register_detector(
        "batVer",
        VerticalBatchStrategy,
        partitioning="vertical",
        mode="batch",
        description="batch recomputation over vertical fragments (ICDE 2010 baseline)",
    )
    registry.register_detector(
        "ibatVer",
        ImprovedVerticalBatchStrategy,
        partitioning="vertical",
        mode="improved-batch",
        description="improved batch baseline of Exp-10 (vertical)",
    )
    registry.register_detector(
        "incHor",
        HorizontalIncrementalStrategy,
        partitioning="horizontal",
        mode="incremental",
        description="incremental CFD detection over horizontal fragments (Fig. 8)",
    )
    registry.register_detector(
        "batHor",
        HorizontalBatchStrategy,
        partitioning="horizontal",
        mode="batch",
        description="batch recomputation over horizontal fragments (ICDE 2010 baseline)",
    )
    registry.register_detector(
        "ibatHor",
        ImprovedHorizontalBatchStrategy,
        partitioning="horizontal",
        mode="improved-batch",
        description="improved batch baseline of Exp-10 (horizontal)",
    )
    registry.register_detector(
        "centralized",
        CentralizedStrategy,
        partitioning="single",
        mode="batch",
        description="single-site SQL-style reference detection",
    )
    registry.register_detector(
        "md",
        MDBatchStrategy,
        partitioning="single",
        mode="batch",
        rules="md",
        description="matching-dependency batch detection (similarity extension)",
    )
    registry.register_detector(
        "incMD",
        MDIncrementalStrategy,
        partitioning="single",
        mode="incremental",
        rules="md",
        description="incremental matching-dependency detection with blocking",
    )
    registry.register_detector(
        "auto",
        AdaptiveStrategy,
        partitioning="any",
        mode="adaptive",
        rules="any",
        description=(
            "cost-based adaptive planner: re-estimates incremental vs batch "
            "per batch and switches at the measured crossover"
        ),
    )

    registry.register_partitioner(
        "vertical",
        _build_vertical_partitioner,
        description="explicit attribute groups, or an even spread (fragments=/n_fragments=)",
    )
    registry.register_partitioner(
        "horizontal",
        _build_horizontal_partitioner,
        description="explicit predicates, or key-hash buckets (fragments=/n_fragments=)",
    )
    registry.register_partitioner(
        "hash",
        _build_horizontal_partitioner,
        description="alias of 'horizontal': hash buckets over the key",
    )

    registry.register_storage(
        "rows",
        lambda relation: relation.with_storage("rows"),
        description="one Tuple object per row (the default layout)",
    )
    registry.register_storage(
        "columnar",
        lambda relation: relation.with_storage("columnar"),
        description="dictionary-encoded column arrays with vectorized kernels",
    )
    registry.register_storage(
        "sql",
        lambda relation: relation.with_storage("sql"),
        description=(
            "embedded-SQL table (sqlite3, file-backed or :memory:) with "
            "CFD checks pushed down as set-oriented queries"
        ),
    )
    from repro.sqlstore import DUCKDB_AVAILABLE

    if DUCKDB_AVAILABLE:  # pragma: no cover - requires optional duckdb
        registry.register_storage(
            "duckdb",
            lambda relation: relation.with_storage("duckdb"),
            description="DuckDB engine behind the same SQL pushdown compiler",
        )
