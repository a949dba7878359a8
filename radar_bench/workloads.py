"""The benchmark's three seeded closed-loop workloads and their correctness gate.

Two *fleet* workloads drive a :class:`~repro.core.fleet.VerificationEngine`
in the ``serve-demo`` production configuration (``RecoveryPolicy.ZERO``,
``auto_reprotect=True``, :class:`~repro.telemetry.monitor.FleetTelemetry`
attached); ``inline-resnet18`` drives one
:class:`~repro.core.runtime.ProtectedInference` over ResNet-18.  Every loop
is closed (the next step starts when the previous one returns) and its
work is a function of ``(workload, seed, seconds)`` only, so the same seed
gives the same counts on every run.

A *step* is an engine tick (fleet) or a protected batch (inline); the
*tick* metrics of ``inline-resnet18`` time the RADAR check inside each
batch, which is the inline counterpart of a fleet tick.  Fleet workloads
also serve seeded image batches on their first ResNet between ticks, so
every workload reports the same end-to-end metrics (see README.md).
``sweep-storm`` ends with a short phase on a two-process pool, which feeds
the ``procpool`` per-layer metrics and the pool's correctness checks.
Every timed sample is also scaled to the reference host's speed by the
host-speed probes taken between steps (see :mod:`radar_bench.hostspeed`).
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import (
    RadarConfig,
    RecoveryPolicy,
    ScanPolicy,
    VerificationEngine,
)
from repro.core.runtime import ProtectedInference
from repro.core.signature import flip_group_index
from repro.models.registry import build_model
from repro.quant.layers import quantize_model, quantized_layers
from repro.telemetry.monitor import FleetTelemetry

from radar_bench import hostspeed, tracing

#: ``--seconds`` value at which every workload runs at full size (the
#: ``run_seconds`` of BENCHMARK.json); smaller values scale the work down.
FULL_SECONDS = 30
#: Images per batch (protected inline, or served by a fleet between ticks)
#: and their (channels, height, width).
BATCH_IMAGES = 4
IMAGE_SHAPE = (3, 32, 32)
MSB = np.int8(-128)


@dataclass(frozen=True)
class FleetSpec:
    """One fleet workload: its models, scan policy and salvo schedule."""

    models: Tuple[Tuple[str, int], ...]
    policy: ScanPolicy
    #: Ticks between salvos, drawn uniformly from ``[low, high]``.
    salvo_gap: Tuple[int, int]
    flips_per_salvo: int
    #: Ticks at full size.
    ticks: int
    #: The first model serves a batch after every ``serve_every``-th tick.
    serve_every: int
    #: Fund exactly one slice per model per tick under the analytic cost model.
    budgeted: bool
    #: Replay the first ``POOL_TICKS`` ticks on a two-process pool after the
    #: timed loop.
    pool_phase: bool = False

    @property
    def detect_within(self) -> int:
        """Ticks within which a salvo must be reported: one rotation."""
        return NUM_SHARDS if self.policy is ScanPolicy.ROUND_ROBIN else 1


FLEETS: Dict[str, FleetSpec] = {
    "rotation-trickle": FleetSpec(
        models=(("resnet20", 16),),
        policy=ScanPolicy.ROUND_ROBIN,
        salvo_gap=(40, 60),
        flips_per_salvo=1,
        ticks=5200,
        serve_every=48,
        budgeted=True,
    ),
    "sweep-storm": FleetSpec(
        models=(("resnet20", 8), ("resnet32", 4), ("mlp", 4)),
        policy=ScanPolicy.FULL,
        salvo_gap=(4, 4),
        flips_per_salvo=10,
        ticks=1000,
        serve_every=8,
        budgeted=False,
        pool_phase=True,
    ),
}

#: Fleet group size (the ``serve-demo`` default) and shard count.
FLEET_CONFIG = RadarConfig(group_size=16)
NUM_SHARDS = 8
#: Cold set-ups per run, spread evenly over the run (see :class:`Probes`).
FLEET_SETUP_PROBES = 9
#: ResNet-18 (ImageNet topology) runs at the paper's recommended G=512.
INLINE_CONFIG = RadarConfig(group_size=512)
INLINE_CLEAN_BATCHES = 500
INLINE_ATTACK_BATCHES = 110
INLINE_SALVOS_PER_BATCH = 3
#: Clean and attack batches alternate in this many segments.
INLINE_SEGMENTS = 5
INLINE_SETUP_PROBES = 5
INLINE_GATE_FLIPS = 10
#: Ticks of the schedule the two-process pool phase replays, and its size.
POOL_TICKS = 40
POOL_PROCESSES = 2
#: Traced mode alternates blocks of this many untraced and traced steps.
TRACE_BLOCK = 25

WORKLOADS = tuple(FLEETS) + ("inline-resnet18",)


# -- results -----------------------------------------------------------------
@dataclass
class Result:
    """What one workload run measured and checked."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    per_layer: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    trace_lines: List[str] = field(default_factory=list)
    #: Span recorders of the traced mode, by the JSONL file name they dump to.
    recorders: Dict[str, tracing.SpanRecorder] = field(default_factory=dict)
    #: Exact counts of the run; the same seed gives the same counts.
    counts: Dict[str, object] = field(default_factory=dict)
    #: The end-to-end metrics as measured; ``metrics`` holds them scaled
    #: to the reference host (see :mod:`radar_bench.hostspeed`).
    measured: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: :meth:`hostspeed.HostSpeed.summary` of the run.
    host_speed: Dict[str, object] = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> None:
        """Count one gate check; a failed one is kept with its message."""
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def put(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = (float(value), unit)
        self.samples[name] = int(samples)

    def put_measured(self, name: str, value: float, unit: str, samples: int) -> None:
        self.measured[name] = (float(value), unit)

    def put_end_to_end(self, compute: Callable, host: hostspeed.HostSpeed) -> None:
        """Run ``compute(put, speed)`` on the host-scaled samples (the
        reported metrics) and on the samples as measured."""
        compute(self.put, host)
        compute(self.put_measured, hostspeed.AS_MEASURED)
        self.host_speed = host.summary()


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: exact for counts, no interpolation."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def scaled(count: int, seconds: int, minimum: int) -> int:
    """Work at ``seconds`` relative to the full-size run."""
    return max(minimum, round(count * seconds / FULL_SECONDS))


@contextlib.contextmanager
def untraced(recorder: Optional[tracing.SpanRecorder]):
    """Record no spans inside the block, even within a traced block."""
    enabled = recorder is not None and recorder.enabled
    if enabled:
        recorder.enabled = False
    try:
        yield
    finally:
        if enabled:
            recorder.enabled = True


# -- inputs ------------------------------------------------------------------
def build_fleet_models(spec: FleetSpec, seed: int) -> List[Tuple[str, object]]:
    """Seeded, quantized fleet models (``build_model(..., seed=seed + i)``)."""
    models = []
    index = 0
    for kind, count in spec.models:
        for _ in range(count):
            if kind == "mlp":
                model = build_model(
                    "mlp",
                    input_dim=512,
                    hidden_dims=(256, 128),
                    num_classes=10,
                    seed=seed + index,
                )
            else:
                model = build_model(kind, num_classes=10, seed=seed + index)
            quantize_model(model)
            model.eval()
            models.append((f"{kind}-{index:02d}", model))
            index += 1
    return models


def image_batches(rng: np.random.Generator, count: int) -> List[np.ndarray]:
    return [
        rng.standard_normal((BATCH_IMAGES,) + IMAGE_SHAPE).astype(np.float32)
        for _ in range(count)
    ]


@dataclass
class Flip:
    layer: object
    layer_name: str
    index: int

    @property
    def value(self) -> int:
        return int(self.layer.qweight.reshape(-1)[self.index])

    def apply(self) -> None:
        flat = self.layer.qweight.reshape(-1)
        flat[self.index] ^= MSB


def draw_flips(
    rng: np.random.Generator, model, count: int
) -> List[Tuple[str, int]]:
    """``count`` distinct seeded (layer, weight) MSB-flip targets."""
    layers = quantized_layers(model)
    targets: List[Tuple[str, int]] = []
    while len(targets) < count:
        name, layer = layers[int(rng.integers(len(layers)))]
        target = (name, int(rng.integers(layer.qweight.size)))
        if target not in targets:
            targets.append(target)
    return targets


class ShardOffsets:
    """Seeded shard offsets 1..7 ahead of a rotation's next shard.

    Offsets cycle through permutations, so every run sees each detection
    latency of 2..8 scans equally often.  Offset 0 is left out: with it the
    nearest-rank median sat exactly on the boundary between 4 and 5 scans
    (and the p90 between 7 and 8) and jumped a whole scan between seeds.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.cycle: List[int] = []

    def target(self, scheduler, store) -> Tuple[str, int]:
        """A flip target in the shard ``offset`` scans ahead of the next one.

        The layer is drawn uniformly among the layers the shard covers,
        then a group of that layer inside the shard, then one of the
        group's weights.
        """
        if not self.cycle:
            self.cycle = [int(offset) + 1 for offset in self.rng.permutation(NUM_SHARDS - 1)]
        # Round-robin scans the longest-exposed shard next.
        following = max(scheduler.shard_info(), key=lambda shard: shard.exposure_passes).index
        rows = scheduler.shard_rows((following + self.cycle.pop()) % NUM_SHARDS)
        layers = [
            (name, groups)
            for name, groups in store.fused().rows_to_layer_groups(rows).items()
            if groups.size
        ]
        name, groups = layers[int(self.rng.integers(len(layers)))]
        group = int(groups[int(self.rng.integers(groups.size))])
        members = store.layer(name).layout.members_of(group)
        return name, int(members[int(self.rng.integers(members.size))])


def resolve_flips(model, targets: Sequence[Tuple[str, int]]) -> List[Flip]:
    """Bind flip targets to the model's *current* weight buffers."""
    layers = dict(quantized_layers(model))
    flips = [Flip(layers[name], name, index) for name, index in targets]
    for flip in flips:
        flat = flip.layer.qweight.reshape(-1)
        if not np.shares_memory(flat, flip.layer.qweight):
            raise RuntimeError(f"weights of {flip.layer_name} are not writable in place")
    return flips


def lone_flips(store, flips: Sequence[Flip]) -> List[bool]:
    """Whether each flip is the only one in its signature group.

    A lone MSB flip moves its group's checksum by ±128, which always
    changes the signature; two flips in one group may cancel.
    """
    groups = [flip_group_index(store, flip.layer_name, flip.index) for flip in flips]
    return [groups.count(group) == 1 for group in groups]


def salvo_schedule(spec: FleetSpec, seed: int, ticks: int, num_models: int) -> Dict[int, int]:
    """``{step: victim index}`` for one run.

    Victims cycle through seeded permutations of the fleet, so every run
    attacks each model equally often and recovery costs, which differ by
    model size, do not shift with the seed's victim mix.
    """
    rng = np.random.default_rng([seed, 1])
    schedule = {}
    victims: List[int] = []
    step = int(rng.integers(spec.salvo_gap[0], spec.salvo_gap[1] + 1))
    # The last salvo must leave a full rotation to be reported in.
    while step <= ticks - spec.detect_within:
        if not victims:
            victims = [int(index) for index in rng.permutation(num_models)]
        schedule[step] = victims.pop()
        step += int(rng.integers(spec.salvo_gap[0], spec.salvo_gap[1] + 1))
    return schedule


# -- fleet workloads -----------------------------------------------------------
def make_engine(spec: FleetSpec, models, processes: int = 1):
    """Register (protect) the fleet and run its first tick: the timed set-up."""
    engine = VerificationEngine(
        FLEET_CONFIG,
        num_shards=NUM_SHARDS,
        policy=spec.policy,
        processes=processes,
        recovery_policy=RecoveryPolicy.ZERO,
        auto_reprotect=True,
    )
    for name, model in models:
        engine.register(name, model)
    if spec.budgeted:
        # One slice per model: every model's largest shard, plus one group
        # of pricing headroom so allocation order cannot starve the last.
        engine.budget_s = sum(
            managed.cost_model.pass_cost_s(managed.scheduler.largest_shard_groups)
            for managed in (engine.get(name) for name in engine.names())
        ) + engine.get(engine.names()[0]).cost_model.pass_cost_s(1)
    FleetTelemetry().attach(engine)
    engine.tick()
    return engine


class Probes:
    """``count`` calls of ``probe`` spread evenly over a run's steps.

    Cold set-ups are taken this way; ``setup_s`` is their median.  The
    host's speed drifts, so set-ups taken back to back at the start of a
    run all see one moment of it; spread over the run, they see the same
    mix of fast and slow periods as the loop's own samples.  One probe
    runs before the loop, the rest after evenly spaced steps (deferred
    while the loop is busy) and any still owed at the end.  ``probe()``
    returns seconds; ``ends`` holds when each call ended.
    """

    def __init__(self, probe: Callable[[], float], count: int, steps: int) -> None:
        self.probe = probe
        self.points = {max(1, steps * index // (count - 1)) for index in range(1, count)}
        self.owed = count - len(self.points)
        self.values: List[float] = []
        self.ends: List[float] = []

    def after(self, step: int, idle: bool = True) -> None:
        self.owed += (step + 1) in self.points
        if idle and self.owed:
            self.run()

    def run(self) -> None:
        self.owed -= 1
        self.values.append(self.probe())
        self.ends.append(time.perf_counter())

    def finish(self) -> None:
        while self.owed:
            self.run()


@dataclass
class PendingSalvo:
    step: int
    injected_at: float
    flips: List[Flip]
    lone: List[bool]


@dataclass
class FleetLog:
    """Per-run samples of a fleet loop."""

    tick_s: List[float] = field(default_factory=list)
    #: When each tick, served batch and detecting tick ended.
    tick_at: List[float] = field(default_factory=list)
    batch_at: List[float] = field(default_factory=list)
    detect_at: List[float] = field(default_factory=list)
    #: Groups verified and stacked widths, per tick.
    groups: List[int] = field(default_factory=list)
    widths: List[int] = field(default_factory=list)
    latency_ticks: List[int] = field(default_factory=list)
    latency_s: List[float] = field(default_factory=list)
    recover_s: List[float] = field(default_factory=list)
    batch_s: List[float] = field(default_factory=list)
    injected: int = 0
    zeroed: int = 0
    salvos: int = 0
    detections: List[Tuple[int, str, int]] = field(default_factory=list)


def run_fleet_loop(
    engine,
    spec: FleetSpec,
    models,
    schedule,
    ticks: int,
    seed: int,
    result: Result,
    log: FleetLog,
    batches: Optional[List[np.ndarray]] = None,
    on_step: Optional[Callable[[int], None]] = None,
    probes: Sequence = (),
) -> None:
    """Run ``ticks`` ticks of the closed loop, checking each salvo.

    Flip targets are drawn at injection: on a rotating fleet a few shards
    ahead of the victim's next scan (:class:`ShardOffsets`), on ``FULL``
    scans by a seeded layer and weight, since every scan covers every shard.

    With ``batches``, the fleet's first model (a ResNet-20) serves one
    image batch after every ``serve_every``-th tick.  Served batches and
    ``probes`` (set-ups and host-speed probes) are deferred while a salvo
    is pending, so that no detection latency includes them.
    """
    server = models[0][1]
    rng = np.random.default_rng([seed, 4])
    offsets = ShardOffsets(rng)
    served = 0
    pending: Dict[str, PendingSalvo] = {}
    owed_batch = False
    for step in range(ticks):
        if on_step is not None:
            on_step(step)
        victim = schedule.get(step)
        if victim is not None:
            name, model = models[victim]
            managed = engine.get(name)
            result.check(name not in pending, f"step {step}: salvo into {name} before its last was reported")
            if spec.policy is ScanPolicy.ROUND_ROBIN:
                targets = [
                    offsets.target(managed.scheduler, managed.protector.store)
                    for _ in range(spec.flips_per_salvo)
                ]
            else:
                targets = draw_flips(rng, model, spec.flips_per_salvo)
            flips = resolve_flips(model, targets)
            lone = lone_flips(managed.protector.store, flips)
            for flip in flips:
                flip.apply()
            pending[name] = PendingSalvo(step, time.perf_counter(), flips, lone)
            log.salvos += 1
            log.injected += len(flips)
        started = time.perf_counter()
        outcomes = engine.tick()
        ended = time.perf_counter()
        log.tick_s.append(ended - started)
        log.tick_at.append(ended)
        log.groups.append(sum(outcome.scan.groups_checked for outcome in outcomes.values()))
        log.widths.append(sum(outcome.batch_width for outcome in outcomes.values()))
        for name, outcome in outcomes.items():
            if not outcome.reprotected:
                continue
            flagged = outcome.scan.report.num_flagged_groups
            log.detections.append((step, name, flagged))
            salvo_state = pending.pop(name, None)
            result.check(salvo_state is not None, f"step {step}: detection in {name} with no flip injected")
            if salvo_state is None:
                continue
            log.latency_ticks.append(step - salvo_state.step + 1)
            log.latency_s.append(ended - salvo_state.injected_at)
            log.recover_s.append(ended - started)
            log.detect_at.append(ended)
            for flip, lone in zip(salvo_state.flips, salvo_state.lone):
                zeroed = flip.value == 0
                log.zeroed += zeroed
                if lone:
                    result.check(zeroed, f"step {step}: detected flip {flip.layer_name}[{flip.index}] reads {flip.value}, not 0")
        for name, salvo_state in list(pending.items()):
            if step - salvo_state.step + 1 >= spec.detect_within:
                pending.pop(name)
                result.check(
                    not any(salvo_state.lone),
                    f"step {step}: salvo into {name} at step {salvo_state.step} not reported within {spec.detect_within} ticks",
                )
        if batches is not None:
            owed_batch = owed_batch or (step + 1) % spec.serve_every == 0
            if owed_batch and not pending:
                owed_batch = False
                images = batches[served % len(batches)]
                served += 1
                started = time.perf_counter()
                server(images)
                ended = time.perf_counter()
                log.batch_s.append(ended - started)
                log.batch_at.append(ended)
        for probe in probes:
            probe.after(step, idle=not pending)


def oracle_clean(engine, result: Result) -> None:
    """The per-layer reference scan must flag nothing on any model."""
    for name in engine.names():
        managed = engine.get(name)
        report = managed.protector.scan(managed.model)
        result.check(not report.attack_detected, f"oracle flags {report.num_flagged_groups} groups in {name} after the run")


def check_fault_stats(engine, result: Result) -> Dict[str, object]:
    """Zero retries, restarts, quarantines and pool failures, and no tick
    degraded to in-process scanning."""
    stats = engine.fault_stats()
    for key in ("task_retries", "worker_restarts", "tasks_quarantined", "pool_failures", "degraded_ticks"):
        result.check(stats.get(key, 0) == 0, f"pool fault_stats reports {key}={stats.get(key)}")
    return stats


def digest(detections: Sequence[Tuple[int, str, int]]) -> str:
    text = "\n".join(f"{step}:{name}:{count}" for step, name, count in detections)
    return hashlib.sha256(text.encode()).hexdigest()


def run_fleet(name: str, seed: int, seconds: int, trace: bool) -> Result:
    spec = FLEETS[name]
    result = Result()
    ticks = scaled(spec.ticks, seconds, minimum=max(2 * TRACE_BLOCK, 4 * spec.salvo_gap[1]))
    models = build_fleet_models(spec, seed)
    schedule = salvo_schedule(spec, seed, ticks, len(models))
    batches = image_batches(np.random.default_rng([seed, 2]), 8)

    engine = make_engine(spec, models)
    log = FleetLog()
    counters = {"groups_zeroed": 0.0, "pool_tasks": 0.0}
    recorder = tracing.SpanRecorder() if trace else None
    blocks = TraceBlocks(recorder, lambda: tracing.install_engine_wrappers(recorder, counters))
    # Set-ups protect a second copy of the fleet, so the engine under test
    # keeps its own adopted weight planes.
    probe_models = build_fleet_models(spec, seed)

    def setup() -> float:
        with untraced(recorder):
            started = time.perf_counter()
            probe = make_engine(spec, probe_models)
            elapsed = time.perf_counter() - started
            probe.close()
        # The set-up's objects hold reference cycles; collecting them here
        # keeps them from piling up in the run's peak memory.
        gc.collect()
        return elapsed

    setups = Probes(setup, FLEET_SETUP_PROBES, ticks)
    host = hostspeed.HostSpeed()
    for probes in (setups, host):
        probes.after(-1)
    try:
        run_fleet_loop(
            engine, spec, models, schedule, ticks, seed, result, log, batches,
            blocks.before if trace else None, (setups, host),
        )
        if recorder is not None:
            recorder.uninstall()
        setups.finish()
        host.sample()
        oracle_clean(engine, result)
        check_fault_stats(engine, result)
    finally:
        if recorder is not None:
            recorder.uninstall()
        engine.close()
    del engine, probe_models, models
    gc.collect()
    result.attempted += len(log.tick_s) + len(log.batch_s)
    result.counts = {
        "ticks": len(log.tick_s),
        "served_batches": len(log.batch_s),
        "salvos": log.salvos,
        "flips_injected": log.injected,
        "flips_zeroed": log.zeroed,
        "groups_per_tick": sum(log.groups) / len(log.tick_s),
        "detections": digest(log.detections),
    }
    pool = run_pool_phase(spec, seed, schedule, log, result, trace) if spec.pool_phase else None

    rss_mb = peak_rss_mb()

    def end_to_end(put, speed) -> None:
        tick_s = speed.scale(log.tick_s, log.tick_at)
        batch_s = speed.scale(log.batch_s, log.batch_at)
        put("setup_s", statistics.median(speed.scale(setups.values, setups.ends)), "s", len(setups.values))
        put("verified_groups_per_s", sum(log.groups) / sum(tick_s), "groups/s", len(tick_s))
        put("tick_ms_p50", percentile(tick_s, 50) * 1e3, "ms", len(tick_s))
        put("tick_ms_p99", percentile(tick_s, 99) * 1e3, "ms", len(tick_s))
        put_detection(put, speed, log)
        put("images_per_s", BATCH_IMAGES * len(batch_s) / sum(batch_s), "images/s", len(batch_s))
        put("batch_ms_p50", percentile(batch_s, 50) * 1e3, "ms", len(batch_s))
        put("batch_ms_p95", percentile(batch_s, 95) * 1e3, "ms", len(batch_s))
        # A ratio of two times: the host's speed cancels out.
        put("check_overhead_share", sum(log.tick_s) / sum(log.batch_s), "ratio", len(tick_s))
        put("peak_rss_mb", rss_mb, "MB", 1)

    result.put_end_to_end(end_to_end, host)

    if recorder is not None:
        traced = [step for step in range(ticks) if TraceBlocks.traced(step)]
        common_per_layer(
            result,
            recorder,
            counters,
            [log.tick_s[step] for step in traced],
            [log.tick_s[step] for step in range(ticks) if not TraceBlocks.traced(step)],
            "tick",
        )
        steps = len(traced)
        groups = sum(log.groups[step] for step in traced)
        widths = sum(log.widths[step] for step in traced)
        put = result.per_layer.__setitem__
        put("signature.groups_per_tick", (groups / steps, "groups/step"))
        put("signature.bytes_per_tick", (groups * FLEET_CONFIG.group_size / steps, "bytes/step"))
        put("signature.batch_fill", (groups / widths if widths else 0.0, "share"))
        put("runtime.check_ms", (0.0, "ms/step"))
        put("runtime.checks", (0.0, "count"))
        put("fleet.ticks", (float(steps), "count"))
        put("fleet.detections", (float(sum(1 for item in log.detections if TraceBlocks.traced(item[0]))), "count"))
        put("bench.salvos", (float(sum(1 for step in schedule if TraceBlocks.traced(step))), "count"))
        pool_per_layer(result, pool)
    return result


def put_detection(put, speed, log) -> None:
    salvos = len(log.latency_ticks)
    latency_s = speed.scale(log.latency_s, log.detect_at)
    recover_s = speed.scale(log.recover_s, log.detect_at)
    put("detect_latency_ms_p50", percentile(latency_s, 50) * 1e3, "ms", salvos)
    put("detect_latency_ms_p90", percentile(latency_s, 90) * 1e3, "ms", salvos)
    put("detect_latency_ticks_p90", percentile(log.latency_ticks, 90), "ticks", salvos)
    put("recover_ms_p50", percentile(recover_s, 50) * 1e3, "ms", salvos)
    put("recover_ms_p90", percentile(recover_s, 90) * 1e3, "ms", salvos)
    put("detected_share", log.zeroed / log.injected, "share", log.injected)


@dataclass
class PoolPhase:
    """What the two-process pool phase measured."""

    log: FleetLog
    stats: Dict[str, object]
    recorder: Optional[tracing.SpanRecorder]
    counters: Dict[str, float]


def run_pool_phase(spec: FleetSpec, seed: int, schedule, log: FleetLog, result: Result, trace: bool) -> PoolPhase:
    """Replay the schedule's first ticks on a two-process pool.

    A fresh copy of the fleet runs the same salvos in the same order; its
    (tick, model, flagged-group count) detections must match the in-process
    run's over those ticks, and the pool must report no faults.  With
    ``trace``, every tick of the phase is traced for the ``procpool``
    per-layer metrics; calls inside the forked workers are not.
    """
    ticks = min(POOL_TICKS, len(log.tick_s))
    models = build_fleet_models(spec, seed)
    engine = make_engine(spec, models, processes=POOL_PROCESSES)
    phase = PoolPhase(FleetLog(), {}, tracing.SpanRecorder() if trace else None, {"groups_zeroed": 0.0, "pool_tasks": 0.0})
    try:
        if phase.recorder is not None:
            tracing.install_engine_wrappers(phase.recorder, phase.counters)
            phase.recorder.enabled = True
        run_fleet_loop(engine, spec, models, schedule, ticks, seed, result, phase.log)
        if phase.recorder is not None:
            phase.recorder.uninstall()
        phase.stats = check_fault_stats(engine, result)
        result.check(
            engine.get(engine.names()[0]).plane_spec is not None,
            "the pool phase did not publish its planes to the worker processes",
        )
    finally:
        if phase.recorder is not None:
            phase.recorder.uninstall()
        engine.close()
    result.check(
        digest(phase.log.detections) == digest([item for item in log.detections if item[0] < ticks]),
        f"{POOL_PROCESSES}-process detections over the first {ticks} ticks differ from the in-process run's",
    )
    result.attempted += ticks
    return phase


def pool_per_layer(result: Result, pool: Optional[PoolPhase]) -> None:
    """``procpool`` per-layer metrics, from the pool phase where there is one."""
    put = result.per_layer.__setitem__
    if pool is None:
        for name in ("procpool.self_ms", "procpool.run_ms", "procpool.tick_ms", "signature.share_ms"):
            put(name, (0.0, "ms/step"))
        put("procpool.tasks_per_tick", (0.0, "count/step"))
        stats: Dict[str, object] = {}
    else:
        summary = tracing.summarize(pool.recorder.spans)
        steps = len(pool.log.tick_s)
        wall = sum(pool.log.tick_s)
        error = abs(sum(summary["self_s"].values()) - wall) / wall
        result.check(error < 0.02, f"pool-phase self times are {error * 100:.2f} % off its tick wall time")
        inclusive = summary["inclusive_s"]
        put("procpool.self_ms", (summary["self_s"]["procpool"] / steps * 1e3, "ms/step"))
        put("procpool.run_ms", (inclusive.get("ProcessScanPool.run", 0.0) / steps * 1e3, "ms/step"))
        put("procpool.tick_ms", (wall / steps * 1e3, "ms/step"))
        put("signature.share_ms", (inclusive.get("FusedSignatures.share", 0.0) / steps * 1e3, "ms/step"))
        put("procpool.tasks_per_tick", (pool.counters["pool_tasks"] / steps, "count/step"))
        stats = pool.stats
        result.recorders["pool_spans"] = pool.recorder
        result.trace_lines.append(
            f"pool phase ({POOL_PROCESSES} processes, {steps} traced ticks): "
            f"{wall / steps * 1e3:.4f} ms/tick, self times {error * 100:.3f} % apart from wall"
        )
        result.trace_lines.extend(tracing.self_time_table(summary, steps))
    put("procpool.retries", (float(stats.get("task_retries", 0)), "count"))
    put("procpool.restarts", (float(stats.get("worker_restarts", 0)), "count"))
    put("procpool.quarantined", (float(stats.get("tasks_quarantined", 0)), "count"))


class TraceBlocks:
    """Alternates blocks of untraced and traced steps within one loop.

    Host speed drifts over a run, so the traced and the untraced samples are
    interleaved rather than taken as two halves; the wrappers are installed
    for traced blocks only, leaving untraced steps on the original calls.
    """

    def __init__(self, recorder: Optional[tracing.SpanRecorder], install: Callable[[], None]) -> None:
        self.recorder = recorder
        self.install = install

    @staticmethod
    def traced(step: int) -> bool:
        return (step // TRACE_BLOCK) % 2 == 1

    def before(self, step: int) -> None:
        if step % TRACE_BLOCK:
            return
        if self.traced(step):
            self.install()
            self.recorder.enabled = True
        else:
            self.recorder.uninstall()


# -- traced-mode reporting -------------------------------------------------------
def reconcile(result: Result, summary, wall_s: Sequence[float], unit: str) -> None:
    """Per-layer self times must add up to the step wall time the loop saw."""
    steps = len(wall_s)
    self_total = sum(summary["self_s"].values())
    wall_total = sum(wall_s)
    error = abs(self_total - wall_total) / wall_total
    result.check(summary["traces"] == steps, f"traced {summary['traces']} steps, loop ran {steps}")
    result.check(error < 0.02, f"per-layer self times sum to {self_total:.4f} s, step wall time {wall_total:.4f} s")
    result.trace_lines.append(f"per-layer self time per {unit} ({steps} traced steps):")
    result.trace_lines.extend(tracing.self_time_table(summary, steps))
    result.trace_lines.append(
        f"  sum {self_total / steps * 1e3:.4f} ms vs wall {wall_total / steps * 1e3:.4f} ms "
        f"({error * 100:.3f} % apart)"
    )
    put_layer = result.per_layer.__setitem__
    for layer, seconds in summary["self_s"].items():
        # In-process steps never enter the pool: procpool's self time comes
        # from the pool phase (pool_per_layer).
        if layer != "procpool":
            put_layer(f"{layer}.self_ms", (seconds / steps * 1e3, "ms/step"))
    put_layer("trace.reconcile_error", (error, "share"))
    put_layer("trace.spans", (float(sum(summary["calls"].values())), "count"))


def common_per_layer(
    result: Result,
    recorder: tracing.SpanRecorder,
    counters: Dict[str, float],
    traced_s: Sequence[float],
    untraced_s: Sequence[float],
    unit: str,
) -> None:
    """Per-layer metrics every workload reports, from the traced blocks."""
    summary = tracing.summarize(recorder.spans)
    steps = len(traced_s)
    reconcile(result, summary, traced_s, unit)
    inclusive = summary["inclusive_s"]

    def per_step_ms(*names: str) -> float:
        return sum(inclusive.get(name, 0.0) for name in names) / steps * 1e3

    put = result.per_layer.__setitem__
    put("signature.gather_ms", (summary["kernel_gather_s"] / steps * 1e3, "ms/step"))
    put("signature.reduce_ms", ((summary["kernel_s"] - summary["kernel_gather_s"]) / steps * 1e3, "ms/step"))
    put("signature.kernel_calls", (summary["kernel_calls"] / steps, "count/step"))
    put("scheduler.plan_ms", (per_step_ms("ScanScheduler.plan", "ScanScheduler.slice_rows"), "ms/step"))
    put("scheduler.apply_scan_ms", (per_step_ms("ScanScheduler.apply_scan"), "ms/step"))
    put("telemetry.observe_ms", (per_step_ms("FleetTelemetry.observe_tick"), "ms/step"))
    put("protector.sign_ms", (per_step_ms("ModelProtector.protect"), "ms/step"))
    put("protector.sweep_ms", (per_step_ms("ModelProtector.scan_fused"), "ms/step"))
    put("recovery.recover_ms", (per_step_ms("ModelProtector.recover"), "ms/step"))
    put("recovery.groups_zeroed", (counters["groups_zeroed"], "count"))
    put("nn.forward_ms", (per_step_ms("Module.forward"), "ms/step"))
    put("trace.overhead_ratio", (percentile(traced_s, 50) / percentile(untraced_s, 50), "ratio"))
    result.trace_lines.append(
        f"tracing overhead: traced / untraced {unit} p50 = "
        f"{percentile(traced_s, 50) * 1e3:.4f} / {percentile(untraced_s, 50) * 1e3:.4f} ms "
        f"= {result.per_layer['trace.overhead_ratio'][0]:.4f}"
    )
    result.recorders["spans"] = recorder


# -- inline ResNet-18 --------------------------------------------------------------
def groups_scanned(scheduler) -> int:
    return sum(info.num_groups * info.times_scanned for info in scheduler.shard_info())


def rotation_means(values: Sequence[float]) -> List[float]:
    """Means over every window of ``NUM_SHARDS`` consecutive batches.

    Each window checks every shard once.  ResNet-18's shards hold equal
    group counts but their checks take from ~1.9 to ~4 ms (layer shapes
    differ), so single-batch check times cluster by shard and their
    median falls in a gap between clusters, where it jumps between runs.
    """
    sums = np.cumsum([0.0] + list(values))
    return list((sums[NUM_SHARDS:] - sums[:-NUM_SHARDS]) / NUM_SHARDS)


def run_inline(seed: int, seconds: int, trace: bool) -> Result:
    result = Result()
    clean_batches = scaled(INLINE_CLEAN_BATCHES, seconds, minimum=2 * TRACE_BLOCK)
    attack_batches = scaled(INLINE_ATTACK_BATCHES, seconds, minimum=NUM_SHARDS)
    rng = np.random.default_rng([seed, 3])
    batches = image_batches(rng, 16)

    def resnet18():
        model = build_model("resnet18", num_classes=20, small_input=False, seed=seed)
        quantize_model(model)
        model.eval()
        return model

    def protect(target) -> Tuple[ProtectedInference, float]:
        started = time.perf_counter()
        protected = ProtectedInference(target, INLINE_CONFIG, num_shards=NUM_SHARDS)
        constructed = time.perf_counter() - started
        # The first batch builds the lazy scan kernel; its check counts.
        protected.forward(batches[0])
        return protected, constructed + protected.log.check_seconds

    model = resnet18()
    runtime, _ = protect(model)

    # Gate: protected logits equal the unprotected model's on clean batches.
    # The unprotected copy then serves as the set-up probes' model.
    reference = resnet18()
    for images in batches[1:5]:
        protected = runtime.forward(images).logits
        result.check(np.array_equal(protected, reference(images)), "protected logits differ from the unprotected model's")

    counters: Dict[str, float] = {"groups_zeroed": 0.0, "pool_tasks": 0.0}
    recorder = tracing.SpanRecorder() if trace else None

    def install() -> None:
        tracing.install_engine_wrappers(recorder, counters)
        recorder.wrap(model, "forward", "nn", name="Module.forward")

    def setup() -> float:
        with untraced(recorder):
            elapsed = protect(reference)[1]
        gc.collect()
        return elapsed

    blocks = TraceBlocks(recorder, install)
    setups = Probes(setup, INLINE_SETUP_PROBES, clean_batches)
    host = hostspeed.HostSpeed()
    for probes in (setups, host):
        probes.after(-1)
    golden = {name: layer.qweight.copy() for name, layer in quantized_layers(model)}
    offsets = ShardOffsets(rng)
    attack = AttackLog()
    batch_s: List[float] = []
    check_s: List[float] = []
    #: When each batch ended.
    batch_at: List[float] = []
    #: Checks run and groups they verified, per batch.
    checks: List[int] = []
    groups: List[int] = []
    scanned = groups_scanned(runtime.scheduler)
    bounds = [clean_batches * segment // INLINE_SEGMENTS for segment in range(INLINE_SEGMENTS + 1)]
    try:
        # Clean and attack batches alternate in segments, so that both see
        # the same mix of the host's fast and slow periods.
        for segment in range(INLINE_SEGMENTS):
            for index in range(bounds[segment], bounds[segment + 1]):
                if trace:
                    blocks.before(index)
                images = batches[index % len(batches)]
                checked = runtime.log.check_seconds
                checks_before = runtime.log.checks
                started = time.perf_counter()
                runtime.forward(images)
                batch_at.append(time.perf_counter())
                batch_s.append(batch_at[-1] - started)
                check_s.append(runtime.log.check_seconds - checked)
                checks.append(runtime.log.checks - checks_before)
                groups.append(groups_scanned(runtime.scheduler) - scanned)
                scanned += groups[-1]
                for probes in (setups, host):
                    probes.after(index)
            with untraced(recorder):
                inline_attack(
                    runtime, model, offsets,
                    attack_batches * (segment + 1) // INLINE_SEGMENTS
                    - attack_batches * segment // INLINE_SEGMENTS,
                    batches, result, attack, host,
                )
                # Put back the weights the segment zeroed, so that the next
                # clean segment verifies clean.
                for name, layer in quantized_layers(model):
                    layer.qweight[...] = golden[name]
            scanned = groups_scanned(runtime.scheduler)
    finally:
        if recorder is not None:
            recorder.uninstall()
    setups.finish()
    host.sample()
    del reference
    report = runtime.protector.scan(model)
    result.check(not report.attack_detected, f"oracle flags {report.num_flagged_groups} groups after the run")
    if recorder is not None:
        traced = [index for index in range(clean_batches) if TraceBlocks.traced(index)]
        plain = [index for index in range(clean_batches) if not TraceBlocks.traced(index)]
        common_per_layer(
            result, recorder, counters,
            [batch_s[index] for index in traced], [batch_s[index] for index in plain], "batch",
        )
        steps = len(traced)
        group_count = sum(groups[index] for index in traced)
        put = result.per_layer.__setitem__
        put("signature.groups_per_tick", (group_count / steps, "groups/step"))
        put("signature.bytes_per_tick", (group_count * INLINE_CONFIG.group_size / steps, "bytes/step"))
        put("signature.batch_fill", (1.0, "share"))
        put("runtime.check_ms", (sum(check_s[index] for index in traced) / steps * 1e3, "ms/step"))
        put("runtime.checks", (float(sum(checks[index] for index in traced)), "count"))
        put("fleet.ticks", (0.0, "count"))
        put("fleet.detections", (0.0, "count"))
        put("bench.salvos", (0.0, "count"))
        pool_per_layer(result, None)
    result.attempted += len(batch_s)

    gate_salvo(runtime, model, rng, result)
    result.counts = {
        "batches": len(batch_s),
        "checks": sum(checks),
        "flips_injected": attack.injected,
        "flips_zeroed": attack.zeroed,
        "groups_per_tick": sum(groups) / len(batch_s),
    }

    rss_mb = peak_rss_mb()

    def end_to_end(put, speed) -> None:
        scaled_batch_s = speed.scale(batch_s, batch_at)
        scaled_check_s = speed.scale(check_s, batch_at)
        # Windows stay inside a clean segment, where the rotation is unbroken.
        windows = [
            mean
            for segment in range(INLINE_SEGMENTS)
            for mean in rotation_means(scaled_check_s[bounds[segment]:bounds[segment + 1]])
        ]
        put("setup_s", statistics.median(speed.scale(setups.values, setups.ends)), "s", len(setups.values))
        put("verified_groups_per_s", sum(groups) / sum(scaled_batch_s), "groups/s", sum(checks))
        put("tick_ms_p50", percentile(windows, 50) * 1e3, "ms", len(windows))
        # A window holding one slow check stays slow for 8 windows, which
        # would let a single stall set the p99; the tail is taken over
        # single checks.
        put("tick_ms_p99", percentile(scaled_check_s, 99) * 1e3, "ms", len(check_s))
        put_detection(put, speed, attack)
        put("images_per_s", BATCH_IMAGES * len(batch_s) / sum(scaled_batch_s), "images/s", len(batch_s))
        put("batch_ms_p50", percentile(scaled_batch_s, 50) * 1e3, "ms", len(batch_s))
        put("batch_ms_p95", percentile(scaled_batch_s, 95) * 1e3, "ms", len(batch_s))
        # A ratio of two times: the host's speed cancels out.
        check_time = sum(check_s)
        put("check_overhead_share", check_time / (sum(batch_s) - check_time), "ratio", len(batch_s))
        put("peak_rss_mb", rss_mb, "MB", 1)

    result.put_end_to_end(end_to_end, host)
    return result


def gate_salvo(runtime, model, rng, result: Result) -> None:
    """One untimed 10-flip salvo must be zeroed within one rotation."""
    flips = resolve_flips(model, draw_flips(rng, model, INLINE_GATE_FLIPS))
    lone = lone_flips(runtime.protector.store, flips)
    for flip in flips:
        flip.apply()
    for _ in range(NUM_SHARDS):
        runtime.forward(np.zeros((BATCH_IMAGES,) + IMAGE_SHAPE, dtype=np.float32))
    for flip, alone in zip(flips, lone):
        if alone:
            result.check(flip.value == 0, f"gate salvo flip {flip.layer_name}[{flip.index}] not zeroed within {NUM_SHARDS} batches")


@dataclass
class AttackLog:
    latency_ticks: List[int] = field(default_factory=list)
    latency_s: List[float] = field(default_factory=list)
    recover_s: List[float] = field(default_factory=list)
    detect_at: List[float] = field(default_factory=list)
    injected: int = 0
    zeroed: int = 0


def inline_attack(
    runtime,
    model,
    offsets: ShardOffsets,
    batches_with_salvos: int,
    batches,
    result: Result,
    log: AttackLog,
    host: hostspeed.HostSpeed,
) -> None:
    """``INLINE_SALVOS_PER_BATCH`` 1-flip salvos per batch, then one rotation
    of batches without; a flip is reported when its weight reads 0.

    ``ProtectedInference`` zeroes flagged groups without re-signing, so a
    per-flip weight read (not the runtime's detection flag, which stays
    raised for already-zeroed groups) marks when each flip was caught.
    Targets come from ``offsets``.  Flips are pending after nearly every
    batch, so host-speed probes run between batches regardless, and the
    latency clock of every pending flip stops while one runs.
    """
    store = runtime.protector.store
    fused = store.fused()
    pending: List[List] = []  # [batch, injected_at, flip, group, lone]
    for index in range(batches_with_salvos + NUM_SHARDS):
        for _ in range(INLINE_SALVOS_PER_BATCH if index < batches_with_salvos else 0):
            target = offsets.target(runtime.scheduler, store)
            (flip,) = resolve_flips(model, [target])
            group = flip_group_index(store, flip.layer_name, flip.index)
            # Zeroing without a re-sign can leave a group mismatching its
            # golden signature; a later flip there may restore the match
            # and go unseen, so only flips into clean groups must be caught.
            row = fused.row_range(flip.layer_name)[0] + group[1]
            lone = fused.mismatched_rows(model, np.array([row])).size == 0
            for entry in pending:
                if entry[3] == group:
                    # Two outstanding flips in one group may cancel.
                    entry[4] = lone = False
            flip.apply()
            pending.append([index, time.perf_counter(), flip, group, lone])
            log.injected += 1
        started = time.perf_counter()
        runtime.forward(batches[index % len(batches)])
        ended = time.perf_counter()
        still = []
        for entry in pending:
            injected_at_batch, injected_at, flip, _, lone = entry
            if flip.value == 0:
                log.zeroed += 1
                log.latency_ticks.append(index - injected_at_batch + 1)
                log.latency_s.append(ended - injected_at)
                log.recover_s.append(ended - started)
                log.detect_at.append(ended)
            elif index - injected_at_batch + 1 >= NUM_SHARDS:
                result.check(not lone, f"inline flip {flip.layer_name}[{flip.index}] not zeroed within {NUM_SHARDS} batches")
            else:
                still.append(entry)
        pending = still
        result.attempted += 1
        if host.due():
            paused = host.sample()
            for entry in pending:
                entry[1] += paused


def run(name: str, seed: int, seconds: int, trace: bool) -> Result:
    if name == "inline-resnet18":
        return run_inline(seed, seconds, trace)
    return run_fleet(name, seed, seconds, trace)
