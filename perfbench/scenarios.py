"""The benchmark's workloads: set-up, measured phase, gates, metrics.

``worker.py`` runs one repetition of one workload through :func:`main`.
Each workload is a ``(setup, measure)`` pair in :data:`WORKLOADS`;
set-up builds the seeded inputs and compiles what the measured phase
must not, the measured phase records into a :class:`Rep`.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spans import OFF, Spans

from repro.cluster import (
    AutoscalePolicy,
    ClusterEngine,
    FleetService,
    TenantPolicy,
    build_fleet,
)
from repro.cluster.events import RackPowerLoss, RackPowerRestore
from repro.compiler import compile_schedule, schedule_network
from repro.compiler.cache import ScheduleCache
from repro.errors import ScheduleError, SimulationError
from repro.faults import (
    FaultSchedule,
    TPEFault,
    generate_fault_schedule,
)
from repro.overlay.config import OverlayConfig, PAPER_EXAMPLE_CONFIG
from repro.serving import (
    AdmissionPolicy,
    BatchPolicy,
    BatchServiceModel,
    ReplicaService,
    RetryPolicy,
    ServingEngine,
    make_requests,
    poisson_arrivals,
)
from repro.sim.cycle import CycleSimulator
from repro.sim.functional import random_layer_operands
from repro.sim.host import HostCpu
from repro.trace.metrics import MetricsRegistry
from repro.workloads.layers import ACCELERATED_KINDS, LayerKind
from repro.workloads.models import build_smallcnn
from repro.workloads.registry import build_workload

# --------------------------------------------------------------------- #
# workload parameters
# --------------------------------------------------------------------- #

#: paper-compile: cold-compiled on the paper's 12x5x20 overlay.
COMPILE_NETS = (
    "AlphaGoZero", "Sentimental-seqCNN", "Sentimental-seqLSTM",
    "Transformer-base", "Transformer-MLP", "TinyAttention",
)
#: paper-compile: simulated bit-true, layer by layer.
SIM_NETS = (
    "Sentimental-seqCNN", "Transformer-base", "Transformer-MLP",
    "TinyAttention",
)
#: paper-compile: served at batch 1 from its compiled schedules.
PAPER_SERVE_NET = "Sentimental-seqCNN"
PAPER_SERVE_REQUESTS = 100_000
PAPER_SERVE_SLO_S = 0.25e-3

#: Offered load as a share of the healthy deployment's capacity.
LOAD = 0.7

#: In-process repeats of each serving run and of the served network's
#: simulation.  Set-up has already compiled everything they use, so the
#: repeats are alike: their virtual results must be identical, and the
#: host-time figures keep their median.
REPEATS = 2

SMALL_GRID = OverlayConfig(3, 2, 2)
SMALL_NET = "SmallCNN"

CHAOS_REPLICAS = 4
CHAOS_MAX_BATCH = 16
CHAOS_REQUESTS = 100_000
CHAOS_DEADLINE_S = 25e-3
CHAOS_SLO_S = 15e-3
#: Per-replica rates; every TPE fault drawn is transient (the one stuck
#: TPE is placed separately, see setup_chaos).
CHAOS_FAULTS = dict(
    crash_rate_hz=0.5,
    mean_repair_s=0.01,
    slowdown_rate_hz=1.0,
    slowdown_factor=1.5,
    tpe_fault_rate_hz=1.0,
    stuck_fraction=0.0,
    bitflip_rate_hz=20.0,
    correctable_fraction=0.5,
)

FLEET_RACKS = 100
FLEET_BOARDS_PER_RACK = 4
FLEET_MAX_BATCH = 8
#: 200 samples beyond p99.
FLEET_REQUESTS = 20_000
FLEET_DEADLINE_S = 10e-3
FLEET_SLO_S = 10e-3
FLEET_TENANTS = {"alpha": 2.0, "beta": 1.0}

#: EWOP mnemonics HostCpu has a kernel for (the others are accounting
#: entries only: lstm_cell, tanh, bn_glu_se_pool, ...).
HOST_EWOP_OPS = frozenset({
    "relu", "bn_relu", "softmax", "add", "add_relu", "pool_max", "pool_avg",
})

#: Host-time figures of the measured phase.  The same deterministic work
#: ran up to 1.8x slower from one minute to the next on the shared host
#: the benchmark was tuned on, so no bound on them could hold: they are
#: per-layer metrics (from a traced run's untraced repetition), and
#: ``--trace 0`` prints them beside the end-to-end metrics.
HOST_METRICS = ("compile_s", "sim_maccs_per_s", "req_per_s")

#: Per-layer metric families whose members depend on the workload.
NETWORKS = (*COMPILE_NETS, SMALL_NET)
BOUND_TERMS = ("compute", "actbus", "psumbus", "dram_rd", "dram_wr")
HOST_KINDS = ("ewop", "eltwise", "softmax", "norm")
FAULT_KINDS = (
    "crash", "recovery", "slowdown", "tpe_stuck", "tpe_transient",
    "dram_ecc", "dram_uncorrectable", "rack_power_loss",
    "rack_power_restore",
)


def per_layer_names() -> list[str]:
    """Every per-layer metric, in BENCHMARK.json order."""
    names = [
        *HOST_METRICS,
        "workloads.build_s",
        "compiler.search_s", "compiler.shapes", "compiler.candidates",
        "compiler.cand_per_s", "compiler.steps",
        "compiler.pruned_by_capacity", "compiler.memo_hit_rate",
        "compiler.cache_hit_rate",
    ]
    for family in ("model_cycles", "model_fps", "hw_efficiency"):
        names += [f"compiler.{family}.{net}" for net in NETWORKS]
    names += [f"compiler.bound.{term}" for term in BOUND_TERMS]
    names += [
        "compiler.parallel_speedup", "codegen.s",
        "sim.run_layer_s", "sim.layer_maccs_per_s.conv",
        "sim.layer_maccs_per_s.mm",
    ]
    names += [f"sim.cycles.{net}" for net in (*SIM_NETS, SMALL_NET)]
    names += [
        "sim.cycle_gap_median", "sim.cycle_gap_max",
        "sim.busiest_port_frac", "sim.issued_per_useful",
    ]
    names += [f"sim.host_s.{kind}" for kind in HOST_KINDS]
    names += [
        "serving.service_model_s", "serving.run_s", "serving.mean_batch",
        "serving.queue_wait_ms", "serving.utilization", "serving.retries",
        "serving.dropped", "serving.rejected",
    ]
    names += [f"faults.injected.{kind}" for kind in FAULT_KINDS]
    names += [
        "faults.mttr_ms", "integrity.detected", "integrity.corrected",
        "integrity.reexecuted",
        "cluster.run_s", "cluster.host_us_per_req", "cluster.hedged",
        "cluster.drains", "cluster.readmits", "cluster.cold_starts",
        "cluster.scale_events",
    ]
    names += [f"cluster.tenant_goodput.{t}" for t in FLEET_TENANTS]
    names += ["cluster.rack_util_min", "trace.overhead"]
    return names


# --------------------------------------------------------------------- #
# one repetition's record
# --------------------------------------------------------------------- #
@dataclass
class LayerSim:
    """What the per-layer metrics need from one simulated layer."""

    maccs: int
    model_cycles: int
    cycles: int
    issued: int
    busiest_bus: int


@dataclass
class Rep:
    """Everything one repetition measures, counts and checks."""

    spans: Spans | object
    metrics: MetricsRegistry | None
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: End-to-end metrics other than ``setup_s``.
    e2e: dict[str, float] = field(default_factory=dict)
    #: Host-time figures of the measured phase (see HOST_METRICS).
    host: dict[str, float] = field(default_factory=dict)
    virtual: dict[str, float] = field(default_factory=dict)
    layer: dict[str, float] = field(default_factory=dict)
    caches: list[ScheduleCache] = field(default_factory=list)
    sims: list[LayerSim] = field(default_factory=list)
    #: Times the simulation phase ran (its spans cover every pass).
    sim_passes: int = 1

    def fail(self, message: str) -> None:
        """A correctness gate failed: a failed operation, and an error."""
        self.failed += 1
        self.errors.append(message)

    def cache(self, config: OverlayConfig) -> ScheduleCache:
        """A fresh cold cache (default beams, no persistent store)."""
        cache = ScheduleCache(config, metrics=self.metrics)
        self.caches.append(cache)
        return cache


# --------------------------------------------------------------------- #
# layers: compile, simulate, serve
# --------------------------------------------------------------------- #
def build(rep: Rep, name: str):
    with rep.spans.span("build_workload", net=name):
        if name == SMALL_NET:
            return build_smallcnn()
        return build_workload(name)


def compile_network(rep: Rep, name: str, network, cache: ScheduleCache):
    """Schedule every accelerated layer; None marks an infeasible one."""
    schedules = []
    for layer in network.accelerated_layers():
        rep.attempted += 1
        misses = cache.misses
        try:
            with rep.spans.span("ScheduleCache.schedule", net=name) as attrs:
                schedules.append(cache.schedule(layer))
                attrs["misses"] = cache.misses - misses
        except ScheduleError as error:
            schedules.append(None)
            rep.fail(f"{name}/{layer.name}: {error}")
    return schedules


def host_inputs(network, rng: np.random.Generator) -> list[tuple]:
    """Seeded int16 inputs for every host layer HostCpu has a kernel for.

    Pooling reads the (C, H, W) output of the accelerated layer before
    it; other EWOPs run on a flat tensor, transformer host layers on
    their (features, batch) tensor.
    """
    inputs = []
    shape = None
    for layer in network.layers:
        if layer.kind in ACCELERATED_KINDS:
            shape = layer.out_shape()
            continue
        if layer.kind == LayerKind.EWOP:
            if layer.op not in HOST_EWOP_OPS:
                continue
            if layer.op.startswith("pool"):
                if not layer.params or shape is None or len(shape) != 3:
                    continue
                x_shape = shape
            else:
                x_shape = (layer.n_elements,)
        else:
            x_shape = (layer.n_features, layer.batch)
        needs_skip = layer.kind == LayerKind.ELTWISE or (
            layer.kind == LayerKind.EWOP and layer.op in ("add", "add_relu")
        )

        def draw():
            return rng.integers(-32768, 32768, size=x_shape).astype(np.int16)

        inputs.append((layer, draw(), draw() if needs_skip else None))
    return inputs


@dataclass
class SimInputs:
    """One network's seeded simulation inputs."""

    name: str
    network: object
    operands: list[tuple[np.ndarray, np.ndarray]]
    host: list[tuple]


def sim_inputs(name: str, network, rng: np.random.Generator) -> SimInputs:
    return SimInputs(
        name=name,
        network=network,
        operands=[
            random_layer_operands(layer, rng)
            for layer in network.accelerated_layers()
        ],
        host=host_inputs(network, rng),
    )


def simulate_network(rep: Rep, inputs: SimInputs, schedules,
                     config: OverlayConfig) -> tuple[int, int, list[LayerSim]]:
    """Bit-true simulation of every layer, then the host layers.

    Returns the measured cycles and simulated MACCs of the accelerated
    layers that passed their gates, and what the per-layer metrics need.
    """
    sim = CycleSimulator(config)
    cycles = maccs = 0
    layers = []
    for layer, schedule, (weights, acts) in zip(
        inputs.network.accelerated_layers(), schedules, inputs.operands
    ):
        rep.attempted += 1
        where = f"{inputs.name}/{layer.name}"
        if schedule is None:
            rep.fail(f"{where}: no schedule to simulate")
            continue
        with rep.spans.span("compile_schedule", net=inputs.name):
            compiled = compile_schedule(schedule)
        try:
            with rep.spans.span(
                "CycleSimulator.run_layer", net=inputs.name,
                kind=layer.kind.value, maccs=layer.maccs,
            ):
                run = sim.run_layer(compiled, weights, acts, check_golden=True)
        except SimulationError as error:
            rep.fail(f"{where}: {error}")
            continue
        if not run.golden_match:
            rep.fail(f"{where}: output differs from the golden model")
            continue
        if run.useful_maccs != layer.maccs:
            rep.fail(
                f"{where}: {run.useful_maccs} useful MACCs, "
                f"layer has {layer.maccs}"
            )
            continue
        maccs += layer.maccs
        cycles += run.cycles
        layers.append(LayerSim(
            maccs=layer.maccs,
            model_cycles=schedule.cycles,
            cycles=run.cycles,
            issued=run.issued_maccs,
            busiest_bus=max(run.bus_busy.values(), default=0),
        ))
    cpu = HostCpu()
    for layer, x, skip in inputs.host:
        with rep.spans.span("HostCpu.execute", kind=layer.kind.value):
            cpu.execute(layer, x, skip=skip)
    return cycles, maccs, layers


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def clk_hz(config: OverlayConfig) -> float:
    return config.clk_h_mhz * 1e6


def record_sim(rep: Rep, maccs: int, seconds: float, fps: list[float],
               layers: list[LayerSim]) -> None:
    rep.host["sim_maccs_per_s"] = maccs / seconds
    rep.e2e["sim_fps"] = rep.virtual["sim_fps"] = geomean(fps)
    rep.sims = layers


def sweep_batches(rep: Rep, model: BatchServiceModel, max_batch: int) -> None:
    """Compile every batch size the run can form, before it starts."""
    for batch in range(1, max_batch + 1):
        misses = model.cache.misses
        with rep.spans.span("BatchServiceModel.cost", batch=batch) as attrs:
            model.cost(batch)
            attrs["misses"] = model.cache.misses - misses


def serve(rep: Rep, make_run, label: str):
    """Serve one seeded stream ``REPEATS`` times, each on a fresh engine.

    Set-up already compiled every service time the run can ask for, so
    the repeats are alike; their virtual-clock results must be
    identical.  Returns the first report, the number of requests and the
    median host seconds of ``run``.
    """
    seconds, first = [], None
    for _ in range(REPEATS):
        engine, requests = make_run()
        t0 = time.perf_counter()
        with rep.spans.span(label):
            report = engine.run(requests)
        seconds.append(time.perf_counter() - t0)
        core = getattr(report, "core", report)
        offered = len(requests)
        rep.attempted += offered
        # A dropped or refused request is a failed operation, not a wrong
        # output: it counts as failed and misses the SLO, nothing more.
        rep.failed += core.n_dropped + core.n_rejected
        accounted = core.n_completed + core.n_dropped + core.n_rejected
        if accounted != offered:
            rep.fail(
                f"{offered} requests offered but {core.n_completed} "
                f"completed + {core.n_dropped} dropped + "
                f"{core.n_rejected} rejected"
            )
        if first is None:
            first = report
        elif core.latencies_s != getattr(first, "core", first).latencies_s:
            rep.fail(f"{label}: repeats of one seed served differently")
    return first, offered, statistics.median(seconds)


def record_serving(rep: Rep, report, offered: int, slo_s: float,
                   run_s: float) -> None:
    """End-to-end serving metrics and the serving layer's counters."""
    good = sum(1 for latency in report.latencies_s if latency <= slo_s)
    rep.host["req_per_s"] = offered / run_s
    rep.e2e["p50_ms"] = rep.virtual["p50_ms"] = report.p50_s * 1e3
    rep.e2e["p99_ms"] = rep.virtual["p99_ms"] = report.p99_s * 1e3
    rep.e2e["goodput"] = rep.virtual["goodput"] = good / offered
    rep.layer.update({
        "serving.mean_batch": report.mean_batch_size,
        "serving.queue_wait_ms": report.mean_queue_wait_s * 1e3,
        "serving.utilization": report.mean_utilization,
        "serving.retries": report.n_retries,
        "serving.dropped": report.n_dropped,
        "serving.rejected": report.n_rejected,
    })
    for kind, count in report.fault_counts.items():
        rep.layer[f"faults.injected.{kind}"] = count
    if report.health is not None:
        rep.layer["faults.mttr_ms"] = report.health.mttr_s * 1e3
    counts = report.integrity_counts
    rep.layer["integrity.detected"] = counts.get("sdc_detected", 0)
    rep.layer["integrity.corrected"] = counts.get("corrected", 0)
    rep.layer["integrity.reexecuted"] = counts.get("reexecuted", 0)


def quality(rep: Rep, name: str, network, schedules, config) -> None:
    """The compiler's own estimate for one network (model, not measured)."""
    scheduled = [s for s in schedules if s is not None]
    if not scheduled:
        return
    cycles = sum(s.cycles for s in scheduled)
    maccs = sum(layer.maccs for layer in network.accelerated_layers())
    rep.layer[f"compiler.model_cycles.{name}"] = cycles
    rep.layer[f"compiler.model_fps.{name}"] = clk_hz(config) / cycles
    rep.layer[f"compiler.hw_efficiency.{name}"] = (
        maccs / (config.n_tpe * cycles)
    )
    rep.virtual["compiler.model_cycles"] = (
        rep.virtual.get("compiler.model_cycles", 0) + cycles
    )
    for schedule in scheduled:
        key = f"compiler.bound.{schedule.estimate.bottleneck}"
        rep.layer[key] = rep.layer.get(key, 0) + 1


# --------------------------------------------------------------------- #
# paper-compile
# --------------------------------------------------------------------- #
def setup_paper(rep: Rep, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    networks = {name: build(rep, name) for name in COMPILE_NETS}
    sims = [sim_inputs(name, networks[name], rng) for name in SIM_NETS]
    # Unit-rate arrivals; scaled to the compiled service rate later.
    arrivals = poisson_arrivals(1.0, PAPER_SERVE_REQUESTS, seed=seed)
    return {"networks": networks, "sims": sims, "arrivals": arrivals}


def measure_paper(rep: Rep, state: dict) -> None:
    config = PAPER_EXAMPLE_CONFIG
    networks = state["networks"]

    t0 = time.perf_counter()
    compiled = {}
    for name, network in networks.items():
        cache = rep.cache(config)
        compiled[name] = (cache, compile_network(rep, name, network, cache))
    rep.host["compile_s"] = time.perf_counter() - t0
    for name, network in networks.items():
        quality(rep, name, network, compiled[name][1], config)

    t0 = time.perf_counter()
    fps, maccs, layers = [], 0, []
    for inputs in state["sims"]:
        cycles, net_maccs, net_layers = simulate_network(
            rep, inputs, compiled[inputs.name][1], config
        )
        rep.layer[f"sim.cycles.{inputs.name}"] = cycles
        fps.append(clk_hz(config) / max(cycles, 1))
        maccs += net_maccs
        layers += net_layers
    record_sim(rep, maccs, time.perf_counter() - t0, fps, layers)

    # Batch-1 serving of one compiled network from the same schedules.
    network = networks[PAPER_SERVE_NET]
    model = BatchServiceModel(
        network, config, cache=compiled[PAPER_SERVE_NET][0]
    )
    sweep_batches(rep, model, 1)
    rate = LOAD / model.service_s(1)
    times = [t / rate for t in state["arrivals"]]

    def make_run():
        engine = ServingEngine(
            ReplicaService(model, n_replicas=1),
            batch_policy=BatchPolicy(max_batch=1, max_wait_s=0.0),
            admission_policy=AdmissionPolicy(capacity=1024),
            slo_s=PAPER_SERVE_SLO_S,
        )
        return engine, make_requests(times, network.name)

    report, offered, run_s = serve(rep, make_run, "ServingEngine.run")
    record_serving(rep, report, offered, PAPER_SERVE_SLO_S, run_s)


def parallel_speedup(rep: Rep, network) -> None:
    """seqCNN: ``schedule_network(workers=2)`` against the sequential
    compile, both on fresh caches in this process (traced runs only)."""
    config = PAPER_EXAMPLE_CONFIG
    t0 = time.perf_counter()
    sequential = schedule_network(network, config, cache=ScheduleCache(config))
    t_seq = time.perf_counter() - t0
    t0 = time.perf_counter()
    fanned = schedule_network(
        network, config, cache=ScheduleCache(config), workers=2
    )
    t_par = time.perf_counter() - t0
    if [(s.mapping, s.estimate) for s in sequential] != [
        (s.mapping, s.estimate) for s in fanned
    ]:
        rep.fail("parallel schedule_network differs from sequential")
    rep.layer["compiler.parallel_speedup"] = t_seq / t_par


# --------------------------------------------------------------------- #
# serve-chaos and serve-fleet
# --------------------------------------------------------------------- #
def setup_small_model(rep: Rep, max_batch: int, seed: int):
    network = build(rep, SMALL_NET)
    t0 = time.perf_counter()
    model = BatchServiceModel(
        network, SMALL_GRID, cache=rep.cache(SMALL_GRID)
    )
    sweep_batches(rep, model, max_batch)
    rep.host["compile_s"] = time.perf_counter() - t0
    sims = sim_inputs(SMALL_NET, network, np.random.default_rng(seed))
    return network, model, sims


def simulate_small(rep: Rep, model: BatchServiceModel, sims: SimInputs):
    """Bit-true runs of the served network's batch-1 program."""
    schedules = compile_network(rep, SMALL_NET, sims.network, model.cache)
    quality(rep, SMALL_NET, sims.network, schedules, SMALL_GRID)
    seconds, first = [], None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = simulate_network(rep, sims, schedules, SMALL_GRID)
        seconds.append(time.perf_counter() - t0)
        if first is None:
            first = result
        elif result[0] != first[0]:
            rep.fail(f"{SMALL_NET}: repeats simulated different cycles")
    cycles, maccs, layers = first
    rep.sim_passes = REPEATS
    rep.layer[f"sim.cycles.{SMALL_NET}"] = cycles
    record_sim(rep, maccs, statistics.median(seconds),
               [clk_hz(SMALL_GRID) / max(cycles, 1)], layers)


def setup_chaos(rep: Rep, seed: int) -> dict:
    network, model, sims = setup_small_model(rep, CHAOS_MAX_BATCH, seed)
    service = ReplicaService(model, n_replicas=CHAOS_REPLICAS)
    # A stuck TPE recompiles onto the largest healthy sub-grid; compile
    # every one-TPE mask now so none of that lands inside the run.
    t0 = time.perf_counter()
    for coord in itertools.product(
        range(SMALL_GRID.d3), range(SMALL_GRID.d2), range(SMALL_GRID.d1)
    ):
        service.degrade_slowdown(frozenset([coord]), CHAOS_MAX_BATCH)
    rep.host["compile_s"] += time.perf_counter() - t0

    capacity = CHAOS_REPLICAS * CHAOS_MAX_BATCH / model.service_s(
        CHAOS_MAX_BATCH
    )
    times = poisson_arrivals(LOAD * capacity, CHAOS_REQUESTS, seed=seed)
    names = service.replica_names()
    transient = generate_fault_schedule(
        seed=seed,
        duration_s=times[-1] - times[0],
        replicas=names,
        grid=SMALL_GRID,
        **CHAOS_FAULTS,
    )
    # One stuck TPE from the first arrival on: a degraded replica for the
    # whole run, rather than a seed-dependent pile-up of permanent faults.
    draw = random.Random(seed + 1)
    stuck = TPEFault(
        at_s=times[0],
        replica=draw.choice(names),
        sb_row=draw.randrange(SMALL_GRID.d3),
        sb_col=draw.randrange(SMALL_GRID.d2),
        chain_pos=draw.randrange(SMALL_GRID.d1),
        stuck=True,
    )
    faults = FaultSchedule.merge(
        transient, FaultSchedule.from_events([stuck], grid=SMALL_GRID)
    )

    def make_run():
        engine = ServingEngine(
            service,
            batch_policy=BatchPolicy(
                max_batch=CHAOS_MAX_BATCH, max_wait_s=2e-3
            ),
            admission_policy=AdmissionPolicy(capacity=1024),
            slo_s=CHAOS_SLO_S,
            fault_schedule=faults,
            retry_policy=RetryPolicy(max_attempts=4),
            integrity_policy="detect-correct",
        )
        requests = make_requests(
            times, network.name, deadline_s=CHAOS_DEADLINE_S
        )
        return engine, requests

    return {"model": model, "sims": sims, "make_run": make_run}


def measure_chaos(rep: Rep, state: dict) -> None:
    simulate_small(rep, state["model"], state["sims"])
    report, offered, run_s = serve(rep, state["make_run"], "ServingEngine.run")
    record_serving(rep, report, offered, CHAOS_SLO_S, run_s)


def setup_fleet(rep: Rep, seed: int) -> dict:
    network, model, sims = setup_small_model(rep, FLEET_MAX_BATCH, seed)
    topology = build_fleet(FLEET_RACKS, FLEET_BOARDS_PER_RACK)
    service = FleetService(model, topology)
    capacity = topology.n_boards * FLEET_MAX_BATCH / model.service_s(
        FLEET_MAX_BATCH
    )
    times = poisson_arrivals(LOAD * capacity, FLEET_REQUESTS, seed=seed)
    draw = random.Random(seed + 1)
    share = FLEET_TENANTS["alpha"] / sum(FLEET_TENANTS.values())
    tenants = [
        "alpha" if draw.random() < share else "beta" for _ in times
    ]
    start, span = times[0], times[-1] - times[0]
    rack = topology.rack_names[0]
    faults = FaultSchedule.from_events([
        RackPowerLoss(at_s=start + span / 3, replica=rack),
        RackPowerRestore(at_s=start + 2 * span / 3, replica=rack),
    ])

    def make_run():
        engine = ClusterEngine(
            service,
            batch_policy=BatchPolicy(
                max_batch=FLEET_MAX_BATCH, max_wait_s=1e-3
            ),
            admission_policy=AdmissionPolicy(capacity=4096),
            slo_s=FLEET_SLO_S,
            fault_schedule=faults,
            retry_policy=RetryPolicy(max_attempts=4),
            tenant_policy=TenantPolicy(weights=FLEET_TENANTS),
            autoscale_policy=AutoscalePolicy(interval_s=1e-3),
            hedge_retries=True,
        )
        requests = make_requests(
            times, network.name, deadline_s=FLEET_DEADLINE_S
        )
        for request, tenant in zip(requests, tenants):
            request.tenant = tenant
        return engine, requests

    return {"model": model, "sims": sims, "make_run": make_run}


def measure_fleet(rep: Rep, state: dict) -> None:
    simulate_small(rep, state["model"], state["sims"])
    report, offered, run_s = serve(rep, state["make_run"], "ClusterEngine.run")
    if not report.conserved:
        rep.fail("cluster report: a tenant's offered != completed + "
                 "rejected + dropped")
    record_serving(rep, report.core, offered, FLEET_SLO_S, run_s)
    for tenant, stats in report.per_tenant.items():
        good = sum(
            1 for r in report.core.completed
            if r.tenant == tenant and r.latency_s <= FLEET_SLO_S
        )
        rep.layer[f"cluster.tenant_goodput.{tenant}"] = good / stats.n_offered
    rep.layer.update({
        "cluster.run_s": run_s,
        "cluster.host_us_per_req": run_s / offered * 1e6,
        "cluster.hedged": report.hedged_dispatches,
        "cluster.drains": report.drains,
        "cluster.readmits": report.readmits,
        "cluster.cold_starts": report.cold_starts,
        "cluster.scale_events": report.scale_ups + report.scale_downs,
        "cluster.rack_util_min": min(report.rack_utilization.values()),
    })


WORKLOADS = {
    "paper-compile": (setup_paper, measure_paper),
    "serve-chaos": (setup_chaos, measure_chaos),
    "serve-fleet": (setup_fleet, measure_fleet),
}


# --------------------------------------------------------------------- #
# per-layer metrics from spans and the program's counters
# --------------------------------------------------------------------- #
def counter_total(registry: MetricsRegistry, name: str) -> float:
    return sum(registry.counter(name).series().values())


def layer_metrics(rep: Rep) -> dict[str, float]:
    spans, registry = rep.spans, rep.metrics
    out = dict.fromkeys(per_layer_names(), 0.0)
    out.update(rep.layer)

    out["workloads.build_s"] = spans.total_s("build_workload")
    # Calls that searched: ScheduleCache.schedule directly, or through
    # BatchServiceModel.cost for every layer of one batch size.
    searching = [
        r for name in ("ScheduleCache.schedule", "BatchServiceModel.cost")
        for r in spans.named(name) if r["attrs"].get("misses")
    ]
    candidates = counter_total(registry, "search_candidates_evaluated")
    if searching:
        out["compiler.search_s"] = statistics.median(
            (r["end"] - r["start"]) / r["attrs"]["misses"] for r in searching
        )
        out["compiler.cand_per_s"] = candidates / sum(
            r["end"] - r["start"] for r in searching
        )
    out["compiler.shapes"] = sum(c.misses for c in rep.caches)
    out["compiler.candidates"] = candidates
    out["compiler.steps"] = counter_total(registry, "search_steps")
    out["compiler.pruned_by_capacity"] = counter_total(
        registry, "search_pruned_by_capacity"
    )
    memo_hits = sum(c.temporal_memo.hits for c in rep.caches)
    memo_lookups = sum(c.temporal_memo.lookups for c in rep.caches)
    if memo_lookups:
        out["compiler.memo_hit_rate"] = memo_hits / memo_lookups
    lookups = sum(c.hits + c.misses for c in rep.caches)
    if lookups:
        out["compiler.cache_hit_rate"] = (
            sum(c.hits for c in rep.caches) / lookups
        )

    passes = rep.sim_passes
    out["codegen.s"] = spans.total_s("compile_schedule") / passes
    out["sim.run_layer_s"] = spans.total_s("CycleSimulator.run_layer") / passes
    for kind in ("conv", "mm"):
        runs = [
            r for r in spans.named("CycleSimulator.run_layer")
            if r["attrs"]["kind"] == kind
        ]
        seconds = sum(r["end"] - r["start"] for r in runs)
        if seconds:
            out[f"sim.layer_maccs_per_s.{kind}"] = (
                sum(r["attrs"]["maccs"] for r in runs) / seconds
            )
    gaps = [(s.cycles - s.model_cycles) / s.model_cycles for s in rep.sims]
    if gaps:
        out["sim.cycle_gap_median"] = statistics.median(gaps)
        out["sim.cycle_gap_max"] = max(gaps)
        out["sim.busiest_port_frac"] = (
            sum(s.busiest_bus for s in rep.sims)
            / sum(s.cycles for s in rep.sims)
        )
        out["sim.issued_per_useful"] = (
            sum(s.issued for s in rep.sims) / sum(s.maccs for s in rep.sims)
        )
    for kind in HOST_KINDS:
        out[f"sim.host_s.{kind}"] = (
            spans.total_s("HostCpu.execute", kind=kind) / passes
        )

    out["serving.service_model_s"] = spans.total_s("BatchServiceModel.cost")
    engine_runs = [
        r["end"] - r["start"] for r in spans.named("ServingEngine.run")
    ]
    if engine_runs:
        out["serving.run_s"] = statistics.median(engine_runs)
    return out


# --------------------------------------------------------------------- #
def main(t_start: float) -> int:
    """One repetition; ``t_start`` is when the interpreter began set-up."""
    parser = argparse.ArgumentParser(
        prog="worker.py",
        description="One repetition of one benchmark workload.",
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path, default=None,
                        help="where a traced repetition writes its spans")
    args = parser.parse_args()

    traced = bool(args.trace)
    rep = Rep(spans=Spans() if traced else OFF,
              metrics=MetricsRegistry() if traced else None)
    setup, measure = WORKLOADS[args.workload]
    state = setup(rep, args.seed)
    setup_s = time.perf_counter() - t_start
    result = {"setup_s": setup_s}
    if not args.setup_only:
        t0 = time.perf_counter()
        measure(rep, state)
        result["measured_s"] = time.perf_counter() - t0
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rep.e2e["peak_rss_mb"] = rss_kb / 1024
        if traced:
            if args.workload == "paper-compile":
                parallel_speedup(rep, state["networks"]["Sentimental-seqCNN"])
            result["per_layer"] = layer_metrics(rep)
            if args.spans is not None:
                rep.spans.dump(args.spans)
        result.update(
            e2e=rep.e2e, host=rep.host, virtual=rep.virtual,
            attempted=rep.attempted, failed=rep.failed, errors=rep.errors,
        )
    print(json.dumps(result))
    return 0

