"""The serving event loop: one discrete-event simulator, board to fleet.

Both public engines run this loop.  :class:`~repro.cluster.engine.
ClusterEngine` runs it over its rack/board topology with tenants,
hedging and an optional autoscaler; :class:`~repro.serving.engine.
ServingEngine` runs it over one rack holding the service's replicas,
one tenant, no autoscaler and hedging off, and returns the core
:class:`~repro.serving.metrics.ServingReport`.

The loop has six event sources: the arrival trace, batch-formation
deadlines, batch completions, retry timers, a
:class:`~repro.faults.schedule.FaultSchedule` and autoscaler ticks.  It
is fully deterministic (virtual time only, no wall clock, no RNG), so a
fixed arrival trace and fault schedule reproduce identical metrics bit
for bit.

A request's end-to-end latency decomposes exactly as:

    queue wait (arrival → batch launch, bounded by admission + max_wait)
  + service    (Σ scheduled layer cycles / f_clk + DRAM transfer)

with the batch-formation wait folded into the queue wait.

Fault-tolerant execution:

* **Crashes** close a board's health gate; its in-flight batches are
  lost and their requests retried under the :class:`~repro.serving.
  request.RetryPolicy` (capped exponential backoff, deadline-aware — a
  retry that cannot land before a request's deadline drops it instead).
* **Transient corruption** (SEU TPE faults, uncorrectable DRAM
  bit-flips, link glitches) poisons the in-flight batches of the struck
  board — same retry path — while the board stays up.  Under a
  detecting :class:`~repro.integrity.policy.IntegrityPolicy` TPE and
  DRAM corruption instead rides to the batch's retirement, where ABFT
  verification drops, re-executes or corrects it in place.
* **Stuck-at TPE faults** permanently mask grid tiles: the board's
  service times inflate to its largest healthy sub-grid's compiled
  schedule.  If no sub-grid remains, the board is treated as crashed.
* **Domain faults** (:mod:`repro.cluster.events`: rack power loss,
  network partition, correlated DRAM) fan out to a rack's member boards;
  the :class:`~repro.cluster.router.ClusterRouter` drains a board the
  instant any gate closes and re-admits it when the gate reopens.
* **Degraded-mode admission**: while any active board is not routable,
  the admission controller's *fault pressure* waives batch formation.
* Requests whose deadline expires in the queue are dropped with a
  reason; if no board will ever free, stranded work is dropped as
  ``no_healthy_replica``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from typing import Mapping, Sequence

from repro.cluster.autoscale import (
    GAUGE_ACTIVE,
    GAUGE_P99_S,
    GAUGE_QUEUE_DEPTH,
    GAUGE_ROUTABLE,
    GAUGE_UTILIZATION,
    AutoscalePolicy,
    Autoscaler,
)
from repro.cluster.events import (
    CorrelatedDramFault,
    NetworkHeal,
    NetworkPartition,
    RackPowerLoss,
    RackPowerRestore,
)
from repro.cluster.report import ClusterReport, TenantStats
from repro.cluster.router import BoardState, ClusterRouter
from repro.cluster.tenancy import TenantPolicy, TenantQueueSet
from repro.cluster.topology import FleetTopology
from repro.errors import FaultError, ScheduleError, ServingError
from repro.faults.events import (
    DramBitFlip,
    FaultEvent,
    LinkFault,
    ReplicaCrash,
    ReplicaRecovery,
    ReplicaSlowdown,
    TPEFault,
)
from repro.faults.monitor import HealthMonitor
from repro.serving.admission import AdmissionController
from repro.serving.metrics import ServingReport, percentile
from repro.serving.request import (
    DROP_DEADLINE,
    DROP_NO_REPLICA,
    DROP_RETRY_EXHAUSTED,
    DROP_SDC,
    InferenceRequest,
)
from repro.serving.scheduler import Dispatch, PipelineService, ReplicaService
from repro.trace.metrics import MetricsRegistry
from repro.trace.span import Tracer


def run_serving_loop(
    engine,
    requests: Sequence[InferenceRequest],
    *,
    topology: FleetTopology,
    domains: Mapping[str, str] | None,
    tenant_policy: TenantPolicy,
    autoscale_policy: AutoscalePolicy | None,
    hedge_retries: bool,
    cold_start_s: float,
) -> ClusterReport:
    """Serve ``requests`` (sorted by arrival) to completion.

    Args:
        engine: The calling :class:`~repro.serving.engine.ServingEngine`
            or :class:`~repro.cluster.engine.ClusterEngine`; the loop
            reads the settings both share from it (``service``,
            ``batch_policy``, ``admission_policy``, ``slo_s``,
            ``fault_schedule``, ``retry_policy``, ``integrity_policy``,
            ``tracer``, ``metrics``).
        requests: The arrival trace.
        topology: Racks and boards; board names are the service's
            replica names.
        domains: Board → failure domain for the health monitor's
            per-domain rollup, or ``None`` for no rollup.
        tenant_policy: Fair-share weights and per-tenant quotas.
        autoscale_policy: Enables the gauge-driven autoscaler.
        hedge_retries: Steer a retried request away from the board that
            failed it when any alternative board is free.
        cold_start_s: Weight-reload time a board pays after power
            restore or autoscale activation.
    """
    if not requests:
        raise ServingError("no requests to serve")
    if any(b.arrival_s < a.arrival_s
           for a, b in zip(requests, requests[1:])):
        raise ServingError("requests are not sorted by arrival time")
    model = requests[0].model
    service = engine.service
    batch_policy = engine.batch_policy
    retry_policy = engine.retry_policy
    policy = engine.integrity_policy
    tracer: Tracer = engine.tracer
    metrics: MetricsRegistry = engine.metrics

    queue = TenantQueueSet(batch_policy, tenant_policy)
    admission = AdmissionController(engine.admission_policy)
    router = ClusterRouter(topology)
    faults: tuple[FaultEvent, ...] = (
        engine.fault_schedule.events if engine.fault_schedule else ()
    )
    monitor = HealthMonitor(
        list(topology.board_names), tracer=tracer, domains=domains,
    ) if faults else None

    scaler = Autoscaler(autoscale_policy, cold_start_s) \
        if autoscale_policy is not None else None
    # The autoscaler reads real gauge values back, so it needs a live
    # registry even when the caller didn't ask for metrics.
    gauges = metrics if metrics.enabled else MetricsRegistry()

    now = requests[0].arrival_s
    arrival_idx = 0
    fault_idx = 0
    seq = 0
    retry_seq = itertools.count()
    inflight: list[tuple[float, int, Dispatch]] = []
    retryq: list[tuple[float, int, InferenceRequest]] = []
    aborted: set[int] = set()
    inflight_seqs: dict[int, Dispatch] = {}
    completed: list[InferenceRequest] = []
    dropped: list[InferenceRequest] = []
    fault_counts: dict[str, int] = {}
    corrupt: dict[int, str] = {}  # in-flight seq -> corruption cause
    integrity_counts: dict[str, int] = {}
    n_retries = 0
    masked: dict[str, set] = {}  # board -> stuck TPE coords
    depth_integral = 0.0
    depth_max = 0
    t_start = requests[0].arrival_s
    t_last_complete = t_start

    t_offered: dict[str, int] = {}
    t_completed: dict[str, int] = {}
    t_rejected: dict[str, int] = {}
    t_quota: dict[str, int] = {}
    t_dropped: dict[str, int] = {}
    last_failed: dict[int, str] = {}  # request_id -> failed board
    hedged_dispatches = 0
    drains = 0
    readmits = 0
    cold_starts = 0
    p99_window: deque[tuple[float, float]] = deque()
    last_busy_total = 0.0
    tick_interval = (
        autoscale_policy.interval_s
        if autoscale_policy is not None else math.inf
    )
    next_tick_s = t_start + tick_interval

    def drop(request: InferenceRequest, reason: str, at_s: float) -> None:
        request.drop_reason = reason
        dropped.append(request)
        t_dropped[request.tenant] = t_dropped.get(request.tenant, 0) + 1
        metrics.counter(
            "serving_requests_dropped", "requests dropped, by reason"
        ).inc(reason=reason)
        tracer.add_span(
            "request", request.arrival_s, max(at_s, request.arrival_s),
            track="requests", id=request.request_id, status="dropped",
            reason=reason, attempts=request.attempts,
        )

    def retry_or_drop(request: InferenceRequest, at_s: float) -> None:
        """Requeue a fault-struck request, or drop it."""
        nonlocal n_retries
        if request.attempts >= retry_policy.max_attempts:
            drop(request, DROP_RETRY_EXHAUSTED, at_s)
            return
        retry_at = at_s + retry_policy.backoff_s(request.attempts)
        if retry_at >= request.deadline_at_s:
            drop(request, DROP_DEADLINE, at_s)
            return
        n_retries += 1
        metrics.counter(
            "serving_retries", "fault-driven retry dispatches"
        ).inc()
        tracer.instant(
            "failover.retry", at=at_s, track="engine",
            id=request.request_id, retry_at_s=retry_at,
        )
        heapq.heappush(retryq, (retry_at, next(retry_seq), request))

    def abort_inflight(board_name: str, at_s: float) -> None:
        """Poison every batch in flight on ``board_name``."""
        for seq_id, dispatch in list(inflight_seqs.items()):
            if dispatch.replica != board_name or seq_id in aborted:
                continue
            aborted.add(seq_id)
            del inflight_seqs[seq_id]
            corrupt.pop(seq_id, None)
            router.by_name(board_name).aborted_batches += 1
            for request in dispatch.batch.requests:
                last_failed[request.request_id] = board_name
                retry_or_drop(request, at_s)

    def mark_corrupt(board_name: str, cause: str) -> None:
        """Silently corrupt the batches in flight on ``board_name``.

        Unlike :func:`abort_inflight` nothing happens *now*: the batch
        keeps computing and the checksum verification settles its fate
        at retirement.  A batch struck more than once escalates to cause
        ``"multiple"`` — stacked corruptions are never localizable to a
        single element, so only re-execution recovers the result.
        """
        for seq_id, dispatch in inflight_seqs.items():
            if dispatch.replica != board_name:
                continue
            corrupt[seq_id] = cause if seq_id not in corrupt else "multiple"

    def drain_board(board: BoardState, at_s: float, cause: str) -> None:
        """A gate closed: abort in-flight work, account the outage."""
        nonlocal drains
        assert monitor is not None
        drains += 1
        abort_inflight(board.name, at_s)
        monitor.record_crash(board.name, at_s)
        tracer.instant(
            "cluster.drain", at=at_s, track=board.name, cause=cause,
        )
        metrics.counter(
            "cluster_drains", "board drain transitions, by cause"
        ).inc(cause=cause)

    def readmit_board(board: BoardState, at_s: float, cause: str) -> None:
        """A gate reopened: re-admit if the board is fully up."""
        nonlocal readmits
        assert monitor is not None
        readmits += 1
        if board.up:
            monitor.record_recovery(board.name, at_s)
        tracer.instant(
            "cluster.readmit", at=at_s, track=board.name, cause=cause,
            warm_at_s=board.warm_at_s,
        )
        metrics.counter(
            "cluster_readmits", "board re-admissions, by cause"
        ).inc(cause=cause)

    def apply_board_dram(event: DramBitFlip) -> None:
        assert monitor is not None
        if not event.correctable:
            monitor.record_dram_uncorrectable(event.replica, event.at_s)
            if policy.detects:
                mark_corrupt(event.replica, "dram_uncorrectable")
            else:
                abort_inflight(event.replica, event.at_s)

    def apply_fault(event: FaultEvent) -> None:
        nonlocal cold_starts
        assert monitor is not None
        fault_counts[event.kind] = fault_counts.get(event.kind, 0) + 1
        metrics.counter(
            "faults_injected", "fault events applied, by kind"
        ).inc(kind=event.kind)
        tracer.instant(
            f"fault.{event.kind}", at=event.at_s, track=event.replica,
        )
        if isinstance(event, RackPowerLoss):
            for board in router.rack_boards(event.domain):
                if board.powered:
                    drain_board(board, event.at_s, event.kind)
            router.power_down_rack(event.domain, event.at_s)
        elif isinstance(event, RackPowerRestore):
            restored = router.power_up_rack(
                event.domain, event.at_s, cold_start_s
            )
            for board in restored:
                cold_starts += 1
                readmit_board(board, event.at_s, event.kind)
        elif isinstance(event, NetworkPartition):
            for board in router.rack_boards(event.domain):
                if board.reachable:
                    drain_board(board, event.at_s, event.kind)
            router.partition_rack(event.domain, event.at_s)
        elif isinstance(event, NetworkHeal):
            healed = router.heal_rack(event.domain, event.at_s)
            for board in healed:
                readmit_board(board, event.at_s, event.kind)
        elif isinstance(event, CorrelatedDramFault):
            members = [b.name for b in router.rack_boards(event.domain)]
            for flip in event.expand(members):
                apply_board_dram(flip)
        elif isinstance(event, ReplicaCrash):
            board = router.by_name(event.replica)
            if board.healthy:
                abort_inflight(event.replica, event.at_s)
                router.crash(event.replica, event.at_s)
                monitor.record_crash(event.replica, event.at_s)
        elif isinstance(event, ReplicaRecovery):
            board = router.recover(event.replica, event.at_s)
            if board.up:
                monitor.record_recovery(event.replica, event.at_s)
        elif isinstance(event, ReplicaSlowdown):
            board = router.by_name(event.replica)
            if board.healthy:
                board.slow_factor = event.factor
                monitor.record_slowdown(event.replica, event.at_s)
        elif isinstance(event, TPEFault):
            if event.stuck:
                coords = masked.setdefault(event.replica, set())
                coords.add(event.coord)
                board = router.by_name(event.replica)
                try:
                    board.degrade_factor = service.degrade_slowdown(
                        frozenset(coords), batch_policy.max_batch,
                    )
                except (FaultError, ScheduleError):
                    # No healthy (schedulable) sub-grid left: the
                    # overlay is gone.
                    if board.healthy:
                        abort_inflight(event.replica, event.at_s)
                        router.crash(event.replica, event.at_s)
                        monitor.record_crash(event.replica, event.at_s)
            elif policy.detects:
                mark_corrupt(event.replica, "tpe_transient")
            else:
                abort_inflight(event.replica, event.at_s)
        elif isinstance(event, DramBitFlip):
            apply_board_dram(event)
        elif isinstance(event, LinkFault):
            abort_inflight(event.replica, event.at_s)
        admission.fault_pressure = router.n_routable < router.n_active

    def publish_gauges(at_s: float) -> None:
        """Refresh the fleet gauges the autoscaler consumes."""
        nonlocal last_busy_total
        assert autoscale_policy is not None
        gauges.gauge(
            GAUGE_QUEUE_DEPTH, "queued requests across all tenants"
        ).set(queue.depth)
        busy_total = sum(b.busy_s for b in router.boards)
        denom = tick_interval * max(1, router.n_routable)
        gauges.gauge(
            GAUGE_UTILIZATION,
            "fleet busy fraction over the last autoscale interval",
        ).set(min(1.0, max(0.0, (busy_total - last_busy_total) / denom)))
        last_busy_total = busy_total
        while p99_window and \
                p99_window[0][0] < at_s - autoscale_policy.p99_window_s:
            p99_window.popleft()
        gauges.gauge(
            GAUGE_P99_S, "p99 latency over the completion window"
        ).set(
            percentile([lat for _, lat in p99_window], 99)
            if p99_window else 0.0
        )
        gauges.gauge(GAUGE_ACTIVE, "autoscaled-in boards").set(
            router.n_active
        )
        gauges.gauge(GAUGE_ROUTABLE, "boards eligible for work").set(
            router.n_routable
        )

    def autoscale_tick(at_s: float) -> None:
        nonlocal cold_starts
        assert scaler is not None
        publish_gauges(at_s)
        activated, deactivated = scaler.tick(at_s, gauges, router)
        for name in activated:
            cold_starts += 1
            tracer.instant(
                "cluster.scale_up", at=at_s, track=name,
                warm_at_s=at_s + cold_start_s,
            )
            metrics.counter(
                "cluster_scale_events", "autoscaler actions, by kind"
            ).inc(kind="up")
        for name in deactivated:
            tracer.instant("cluster.scale_down", at=at_s, track=name)
            metrics.counter(
                "cluster_scale_events", "autoscaler actions, by kind"
            ).inc(kind="down")
        admission.fault_pressure = router.n_routable < router.n_active

    while (arrival_idx < len(requests) or retryq or len(queue)
           or inflight_seqs):
        # Apply fault events due at the current instant first: a board
        # dying at t must not receive work dispatched at t.
        while fault_idx < len(faults) and faults[fault_idx].at_s <= now:
            apply_fault(faults[fault_idx])
            fault_idx += 1

        # Autoscaler evaluations due at the current instant (after
        # faults: the tick sees the post-fault fleet state).
        while scaler is not None and next_tick_s <= now:
            autoscale_tick(next_tick_s)
            next_tick_s += tick_interval

        # Requeue retries that have served their backoff.
        while retryq and retryq[0][0] <= now:
            _, _, request = heapq.heappop(retryq)
            queue.push(request)
            depth_max = max(depth_max, queue.depth)

        # Admit every arrival due at the current instant, so a burst
        # landing at one timestamp batches together.
        while (arrival_idx < len(requests)
               and requests[arrival_idx].arrival_s <= now):
            request = requests[arrival_idx]
            arrival_idx += 1
            tenant = request.tenant
            t_offered[tenant] = t_offered.get(tenant, 0) + 1
            quota = tenant_policy.quota(tenant)
            if quota is not None and queue.tenant_depth(tenant) >= quota:
                t_quota[tenant] = t_quota.get(tenant, 0) + 1
                t_rejected[tenant] = t_rejected.get(tenant, 0) + 1
                metrics.counter(
                    "cluster_quota_rejections",
                    "arrivals refused by tenant quota",
                ).inc(tenant=tenant)
            elif admission.admit(queue.depth):
                queue.push(request)
                depth_max = max(depth_max, queue.depth)
            else:
                t_rejected[tenant] = t_rejected.get(tenant, 0) + 1

        # Shed queued requests whose deadline has already passed.
        for request in queue.expire(now):
            drop(request, DROP_DEADLINE, now)

        # Launch batches while a board is free and the policy fires.
        while True:
            degraded = admission.degraded(queue.depth)
            if not queue.ready(now, degraded=degraded):
                break
            board = router.free_board(now)
            if board is None:
                break
            if degraded:
                admission.degraded_dispatches += 1
            batch = queue.pop(now)
            avoid = frozenset(
                last_failed[r.request_id] for r in batch.requests
                if r.request_id in last_failed
            ) if hedge_retries else frozenset()
            if avoid:
                board = router.free_board(now, avoid)
                assert board is not None  # a free board existed above
                if board.name not in avoid:
                    hedged_dispatches += 1
                    tracer.instant(
                        "cluster.hedged", at=now, track=board.name,
                        avoided=",".join(sorted(avoid)),
                    )
            factor = board.service_factor
            dispatch = router.dispatch(
                board, batch, now,
                occupancy_s=service.occupancy_s(batch.size) * factor,
                latency_s=service.latency_s(batch.size) * factor,
            )
            for req in batch.requests:
                req.dispatch_s = now
                req.batch_size = batch.size
                req.replica = dispatch.replica
                req.attempts += 1
            seq += 1
            inflight_seqs[seq] = dispatch
            heapq.heappush(inflight, (dispatch.complete_s, seq, dispatch))

        # Advance the clock to the next event.
        candidates = []
        if arrival_idx < len(requests):
            candidates.append(requests[arrival_idx].arrival_s)
        if retryq:
            candidates.append(retryq[0][0])
        if inflight_seqs:
            candidates.append(inflight[0][0])
        if fault_idx < len(faults):
            candidates.append(faults[fault_idx].at_s)
        if len(queue):
            # A queued batch can next launch at its formation deadline
            # or when a board frees, whichever is later — provided any
            # routable board exists; it can also shed work at the
            # earliest queued deadline.
            next_free = router.next_free_s()
            if math.isfinite(next_free):
                candidates.append(max(queue.next_deadline(), next_free))
            expiry = queue.next_expiry_s()
            if math.isfinite(expiry):
                candidates.append(expiry)
        if scaler is not None and (
            candidates or (len(queue) and router.standby_boards())
        ):
            # A tick is only worth waiting for when some other event will
            # eventually fire, or the scaler could rescue stranded work
            # by activating a standby board; otherwise ticking forever
            # would spin the loop.
            candidates.append(next_tick_s)
        if not candidates:
            # No board will ever free and no event is pending:
            # strand-drop whatever is still queued or backing off.
            for request in queue.pop_all():
                drop(request, DROP_NO_REPLICA, now)
            while retryq:
                _, _, request = heapq.heappop(retryq)
                drop(request, DROP_NO_REPLICA, now)
            break
        next_t = max(min(candidates), now)
        depth_integral += queue.depth * (next_t - now)
        now = next_t

        # Retire completions due at the new instant.
        while inflight and inflight[0][0] <= now:
            done_s, seq_id, dispatch = heapq.heappop(inflight)
            if seq_id in aborted:
                aborted.discard(seq_id)
                continue
            del inflight_seqs[seq_id]
            cause = corrupt.pop(seq_id, None)
            if cause is not None:
                # The batch's ABFT verification fails here, after it paid
                # its full service time.
                integrity_counts["sdc_detected"] = (
                    integrity_counts.get("sdc_detected", 0) + 1
                )
                metrics.counter(
                    "integrity_events", "ABFT verification outcomes"
                ).inc(kind="sdc_detected", cause=cause)
                tracer.instant(
                    "integrity.sdc_detected", at=done_s,
                    track=dispatch.replica, cause=cause,
                    size=dispatch.batch.size,
                )
                if policy.corrects and cause == "tpe_transient":
                    # A lone accumulator upset: the row/column syndromes
                    # localize it and the repaired output re-verifies —
                    # serve the batch normally.
                    integrity_counts["corrected"] = (
                        integrity_counts.get("corrected", 0) + 1
                    )
                    metrics.counter(
                        "integrity_events", "ABFT verification outcomes"
                    ).inc(kind="corrected", cause=cause)
                    tracer.instant(
                        "integrity.corrected", at=done_s,
                        track=dispatch.replica,
                    )
                elif policy.reexecutes:
                    integrity_counts["reexecuted"] = (
                        integrity_counts.get("reexecuted", 0) + 1
                    )
                    metrics.counter(
                        "integrity_events", "ABFT verification outcomes"
                    ).inc(kind="reexecuted", cause=cause)
                    tracer.instant(
                        "integrity.reexecuted", at=done_s,
                        track=dispatch.replica, size=dispatch.batch.size,
                    )
                    for req in dispatch.batch.requests:
                        last_failed[req.request_id] = dispatch.replica
                        retry_or_drop(req, done_s)
                    continue
                else:
                    integrity_counts["dropped"] = (
                        integrity_counts.get("dropped", 0) + 1
                    )
                    metrics.counter(
                        "integrity_events", "ABFT verification outcomes"
                    ).inc(kind="dropped", cause=cause)
                    for req in dispatch.batch.requests:
                        drop(req, DROP_SDC, done_s)
                    continue
            for req in dispatch.batch.requests:
                req.complete_s = done_s
                completed.append(req)
                t_completed[req.tenant] = t_completed.get(req.tenant, 0) + 1
                last_failed.pop(req.request_id, None)
                if scaler is not None:
                    p99_window.append((done_s, done_s - req.arrival_s))
                metrics.counter(
                    "serving_requests_completed", "requests served"
                ).inc()
                metrics.histogram(
                    "serving_request_latency_s",
                    "end-to-end request latency, seconds",
                ).observe(done_s - req.arrival_s)
            if tracer.enabled:
                trace_retired_batch(service, tracer, dispatch, done_s)
            t_last_complete = max(t_last_complete, done_s)

    makespan = t_last_complete - t_start
    n_rejected = admission.rejected + sum(t_quota.values())
    utilization = router.utilization(makespan)
    if metrics.enabled:
        for name, util in utilization.items():
            metrics.gauge(
                "serving_replica_utilization",
                "busy fraction over the makespan",
            ).set(util, replica=name)
        metrics.gauge(
            "serving_queue_depth_max", "peak batcher queue depth"
        ).set(depth_max)
        metrics.counter(
            "serving_requests_rejected", "arrivals refused by admission"
        ).inc(n_rejected)
    core = ServingReport(
        model=model,
        completed=tuple(completed),
        n_rejected=n_rejected,
        slo_s=engine.slo_s,
        makespan_s=makespan,
        queue_depth_time_avg=(
            depth_integral / makespan if makespan > 0 else 0.0
        ),
        queue_depth_max=depth_max,
        utilization=utilization,
        degraded_dispatches=admission.degraded_dispatches,
        cache_stats=service.cache_stats(),
        dropped=tuple(dropped),
        n_retries=n_retries,
        fault_counts=dict(sorted(fault_counts.items())),
        integrity_policy=policy.value if policy.detects else None,
        integrity_counts=dict(sorted(integrity_counts.items())),
        health=(
            monitor.finalize(t_last_complete, t_start)
            if monitor is not None else None
        ),
    )
    per_tenant = {
        tenant: TenantStats(
            tenant=tenant,
            n_offered=t_offered.get(tenant, 0),
            n_completed=t_completed.get(tenant, 0),
            n_rejected=t_rejected.get(tenant, 0),
            n_dropped=t_dropped.get(tenant, 0),
            n_quota_rejected=t_quota.get(tenant, 0),
        )
        for tenant in sorted(t_offered)
    }
    return ClusterReport(
        core=core,
        t_start_s=t_start,
        n_racks=topology.n_racks,
        n_boards=topology.n_boards,
        per_tenant=per_tenant,
        scale_ups=scaler.scale_ups if scaler else 0,
        scale_downs=scaler.scale_downs if scaler else 0,
        autoscale_ticks=scaler.ticks if scaler else 0,
        hedged_dispatches=hedged_dispatches,
        drains=drains,
        readmits=readmits,
        cold_starts=cold_starts,
        cold_start_s=cold_start_s,
        rack_utilization=router.rack_utilization(makespan),
    )


def trace_retired_batch(
    service: ReplicaService | PipelineService,
    tracer: Tracer,
    dispatch: Dispatch,
    done_s: float,
) -> None:
    """Emit a retired batch's span and its requests' lifecycle trees.

    Timestamps are the exact virtual-clock instants the loop already
    stamped on the requests, so every ``request`` root span's duration
    *is* that request's end-to-end latency, and the ``queue`` /
    ``compute`` / ``dram`` children partition it.  The compute/DRAM
    boundary applies the service model's healthy compute fraction to the
    batch's actual (possibly slowdown- or degrade-inflated) service
    interval.
    """
    batch = dispatch.batch
    tracer.add_span(
        "batch", dispatch.start_s, done_s, track=dispatch.replica,
        size=batch.size,
    )
    split = getattr(service, "latency_split", None)
    compute_s, transfer_s = split(batch.size) if split else (1.0, 0.0)
    total = compute_s + transfer_s
    frac = compute_s / total if total > 0 else 1.0
    for req in batch.requests:
        root = tracer.add_span(
            "request", req.arrival_s, done_s, track="requests",
            id=req.request_id, status="completed",
            replica=dispatch.replica, batch=batch.size,
            attempts=req.attempts,
        )
        dispatch_s = req.dispatch_s
        assert dispatch_s is not None
        tracer.add_span(
            "queue", req.arrival_s, dispatch_s, parent=root,
            track="requests", id=req.request_id,
        )
        # min() guards the last-ulp case where frac == 1.0 and the add
        # rounds a hair past done_s.
        compute_end = min(
            dispatch_s + (done_s - dispatch_s) * frac, done_s
        )
        tracer.add_span(
            "compute", dispatch_s, compute_end, parent=root,
            track="requests", id=req.request_id,
        )
        tracer.add_span(
            "dram", compute_end, done_s, parent=root,
            track="requests", id=req.request_id,
        )
