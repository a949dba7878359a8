"""Run-time span tracing of the engine's calls into other layers.

The traced mode wraps public functions of the program at run time, from
this file only: nothing under ``src/`` changes.  Every wrapped call made
while a *step* (an engine tick or a protected batch) is running becomes a
span ``(trace, span, parent, name, layer, start, end)`` kept in memory; one
trace id is assigned per step.  Calls made outside a step (set-up, the
correctness gate) and calls made in forked pool workers pass straight
through.

:func:`summarize` turns the spans into per-layer self time per step (a
span's duration minus its direct children's), which adds up to the traced
step time by construction; the benchmark then checks that sum against the
step wall time its own loop measured.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Layers whose self time the traced mode reports, in tick order.
LAYERS = (
    "fleet",
    "scheduler",
    "signature",
    "protector",
    "recovery",
    "procpool",
    "telemetry",
    "runtime",
    "nn",
)

#: Signature-layer entry points that run one verification kernel.  Nested
#: entries (a ``StackedVerifier.verify`` falling back to
#: ``batched_mismatched_rows``) count once.
KERNEL_SPANS = frozenset(
    {
        "StackedVerifier.verify",
        "batched_mismatched_rows",
        "stacked_mismatched_rows",
        "FusedSignatures.mismatched_rows",
    }
)

GATHER_SPAN = "PlaneStructure.gather_block"

Span = Tuple[int, int, int, str, str, float, float]


class SpanRecorder:
    """Installs wrappers and records the spans of calls made inside a step."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.enabled = False
        self._stack: List[int] = []
        self._trace = 0
        self._next_span = 0
        self._restore: List[Callable[[], None]] = []
        self._pid = os.getpid()

    def wrap(
        self,
        owner: object,
        attr: str,
        layer: str,
        name: Optional[str] = None,
        root: bool = False,
        on_result: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``root=True`` marks the call that starts a step (it opens a new
        trace); other wrapped calls are recorded only inside a step.
        ``on_result(args, kwargs, result)`` runs after a recorded call.
        """
        original = getattr(owner, attr)
        own_attr = attr in vars(owner)
        saved = vars(owner)[attr] if own_attr else None
        name = name or (
            f"{owner.__name__}.{attr}" if isinstance(owner, type) else attr
        )
        recorder = self

        def wrapper(*args, **kwargs):
            stack = recorder._stack
            if not recorder.enabled or os.getpid() != recorder._pid:
                return original(*args, **kwargs)
            if not stack:
                if not root:
                    return original(*args, **kwargs)
                recorder._trace += 1
            recorder._next_span += 1
            span_id = recorder._next_span
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                ended = time.perf_counter()
                stack.pop()
                recorder.spans.append(
                    (recorder._trace, span_id, parent, name, layer, started, ended)
                )
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        if own_attr:
            self._restore.append(lambda: setattr(owner, attr, saved))
        else:
            self._restore.append(lambda: delattr(owner, attr))

    def uninstall(self) -> None:
        """Put every wrapped attribute back (last wrapped, first restored)."""
        self.enabled = False
        while self._restore:
            self._restore.pop()()

    def dump(self, path: str) -> None:
        """Write the recorded spans as JSONL, one span per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for trace, span, parent, name, layer, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "trace": trace,
                            "span": span,
                            "parent": parent,
                            "name": name,
                            "layer": layer,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )


def install_engine_wrappers(
    recorder: SpanRecorder, counters: Dict[str, float]
) -> None:
    """Wrap every public call the fleet engine and the runtime make."""
    import repro.core.fleet as fleet
    import repro.core.procpool as procpool
    import repro.core.signature as signature
    from repro.core.protector import ModelProtector
    from repro.core.runtime import ProtectedInference
    from repro.core.scheduler import ScanScheduler
    from repro.telemetry.monitor import FleetTelemetry

    def count_groups(args, kwargs, result) -> None:
        counters["groups_zeroed"] += result.groups_recovered

    def count_tasks(args, kwargs, result) -> None:
        tasks = args[1] if len(args) > 1 else kwargs["tasks"]
        counters["pool_tasks"] += len(tasks)

    recorder.wrap(fleet.VerificationEngine, "tick", "fleet", root=True)
    recorder.wrap(ProtectedInference, "forward", "runtime", root=True)
    for attr in ("plan", "slice_rows", "apply_scan", "step"):
        recorder.wrap(ScanScheduler, attr, "scheduler")
    recorder.wrap(signature.StackedVerifier, "verify", "signature")
    recorder.wrap(signature.PlaneStructure, "gather_block", "signature")
    recorder.wrap(signature.FusedSignatures, "share", "signature")
    recorder.wrap(signature.FusedSignatures, "mismatched_rows", "signature")
    # Module-level kernels are looked up through each caller's globals.
    for module in (signature, fleet):
        recorder.wrap(module, "batched_mismatched_rows", "signature")
    for module in (signature, procpool):
        recorder.wrap(module, "stacked_mismatched_rows", "signature")
    recorder.wrap(ModelProtector, "protect", "protector")
    recorder.wrap(ModelProtector, "scan_fused", "protector")
    recorder.wrap(ModelProtector, "recover", "recovery", on_result=count_groups)
    recorder.wrap(procpool.ProcessScanPool, "run", "procpool", on_result=count_tasks)
    recorder.wrap(procpool.ProcessScanPool, "fault_stats", "procpool")
    recorder.wrap(FleetTelemetry, "observe_tick", "telemetry")


def summarize(spans: Sequence[Span]) -> Dict[str, object]:
    """Per-layer self time, per-name inclusive time, kernel and gather totals.

    Returns seconds summed over all traced steps; the caller divides by
    the step count.
    """
    duration: Dict[int, float] = {}
    child_time: Dict[int, float] = defaultdict(float)
    parent_of: Dict[int, int] = {}
    name_of: Dict[int, str] = {}
    for trace, span, parent, name, layer, start, end in spans:
        duration[span] = end - start
        parent_of[span] = parent
        name_of[span] = name
        if parent:
            child_time[parent] += end - start

    def inside_kernel(span: int) -> bool:
        parent = parent_of.get(span, 0)
        while parent:
            if name_of.get(parent) in KERNEL_SPANS:
                return True
            parent = parent_of.get(parent, 0)
        return False

    self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
    inclusive_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    kernel_s = 0.0
    kernel_calls = 0
    kernel_gather_s = 0.0
    for trace, span, parent, name, layer, start, end in spans:
        own = duration[span]
        self_s[layer] += own - child_time.get(span, 0.0)
        inclusive_s[name] += own
        calls[name] += 1
        if name in KERNEL_SPANS and not inside_kernel(span):
            kernel_s += own
            kernel_calls += 1
        elif name == GATHER_SPAN and inside_kernel(span):
            kernel_gather_s += own
    return {
        "self_s": self_s,
        "inclusive_s": dict(inclusive_s),
        "calls": dict(calls),
        "traces": len({span[0] for span in spans}),
        "kernel_s": kernel_s,
        "kernel_calls": kernel_calls,
        "kernel_gather_s": kernel_gather_s,
    }


def self_time_table(summary: Dict[str, object], steps: int) -> Iterable[str]:
    """Human-readable per-layer self time per step."""
    total = sum(summary["self_s"].values()) or 1.0
    for layer in LAYERS:
        seconds = summary["self_s"][layer]
        yield (
            f"  {layer:<10} {seconds / max(steps, 1) * 1e3:9.4f} ms/step "
            f"{seconds / total * 100:6.2f} %"
        )
