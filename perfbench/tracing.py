"""Span tracing installed from outside the program.

A :class:`Tracer` wraps public functions and methods of ``repro`` with
recorders, runs a pass, and puts every original object back.  Nothing
under ``src/`` knows it is being traced: a wrapped module function is
replaced in *every* loaded ``repro`` module that bound it by name (so
``from .offload import solve_offload`` call sites are caught too), and
a wrapped method is replaced on its class and on each subclass that
defines its own copy.

Two kinds of probe:

* **span** — name, start, end, parent span, pass id, plus the number
  of link packet draws made while it was open (so a layer's packet
  rate is measured where the work happens);
* **count** — a bare call counter, for per-packet hot paths where a
  span per call would cost more than the work it times.

Spans are kept in memory and written as JSONL by :meth:`write_jsonl`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

#: Counter whose running value each span snapshots (link packet draws).
PACKETS = "sim.link.packet_draws"


@dataclass(frozen=True)
class Probe:
    """One boundary to instrument.

    Attributes:
        module: dotted module that defines the target.
        attr: ``"func"`` for a module function, ``"Class.method"`` for a
            method.
        name: span or counter name; its first dotted part is the layer.
        kind: ``"span"`` or ``"count"``.
        on_result: optional ``(tracer, self_or_none, result, before)``
            hook run after the call (used for cache hits and kernel
            event deltas); ``before`` is what ``on_enter`` returned.
        on_enter: optional ``(self_or_none) -> object`` run before the
            call.
    """

    module: str
    attr: str
    name: str
    kind: str = "span"
    on_result: Optional[Callable] = None
    on_enter: Optional[Callable] = None


def _count_hit(tracer: "Tracer", obj, result, before) -> None:
    if result is not None:
        tracer.count("runtime.cache.hits")


def _events_before(obj) -> int:
    return obj.processed_events


def _events_after(tracer: "Tracer", obj, result, before) -> None:
    tracer.count("sim.events", obj.processed_events - before)


#: Every boundary the benchmark traces, grouped by layer.
PROBES: "tuple[Probe, ...]" = (
    # deploy
    Probe("repro.deploy.partition", "partition", "deploy.partition"),
    Probe("repro.deploy.region", "simulate_region", "deploy.region"),
    Probe("repro.deploy.campaign", "merge_region_reports", "deploy.merge"),
    # net
    Probe("repro.deploy.region", "simulate_hub", "net.session"),
    Probe("repro.net.tdma", "TdmaSchedule.without", "net.tdma"),
    Probe("repro.net.tdma", "TdmaSchedule.with_client", "net.tdma"),
    *(
        Probe("repro.net.session", f"HubSession.{method}", "net.handoff")
        for method in ("adopt_client", "release_client", "power_down", "power_up")
    ),
    # sim
    Probe(
        "repro.sim.simulator", "Simulator.run", "sim.kernel",
        on_enter=_events_before, on_result=_events_after,
    ),
    Probe("repro.sim.session", "CommunicationSession.run", "sim.pair"),
    Probe("repro.sim.link", "SimulatedLink.packet_success", PACKETS, "count"),
    Probe("repro.sim.link", "SimulatedLink.ber", "sim.link.ber", "count"),
    *(
        Probe("repro.sim.policies", f"{policy}.{method}", f"sim.policy.{method}", "count")
        for policy in ("BraidioPolicy", "FixedModePolicy", "BluetoothPolicy")
        for method in ("next_packet", "update_energy")
    ),
    # core / batch
    Probe("repro.core.offload", "solve_offload", "core.offload"),
    Probe("repro.batch.grid", "gain_matrix_grid", "batch.grid"),
    Probe("repro.batch.grid", "distance_gain_curve_grid", "batch.grid"),
    # faults: every public method of the handoff coordinator
    *(
        Probe("repro.deploy.region", f"HandoffCoordinator.{method}", "faults.handoff")
        for method in (
            "runtime", "local_index_of", "hub_down", "hub_up",
            "begin_brownout", "end_brownout", "begin_surge", "end_surge",
            "storm_suspend", "storm_resume", "summarize",
        )
    ),
    # runtime
    Probe("repro.runtime.executor", "run_campaign", "runtime.campaign"),
    Probe("repro.runtime.shard", "run_sharded_campaign", "runtime.campaign"),
    Probe("repro.runtime.executor", "execute_job", "runtime.job"),
    Probe("repro.runtime.cache", "ResultCache.get", "runtime.cache.get", on_result=_count_hit),
    Probe("repro.runtime.cache", "ResultCache.put", "runtime.cache.put"),
    *(
        Probe("repro.runtime.journal", f"CampaignJournal.{method}", "runtime.journal")
        for method in ("begin", "dispatched", "done", "failed", "interrupted", "end")
    ),
)


def _targets(probe: Probe) -> "list[tuple[object, str]]":
    """Where a probe's target is bound: for a method, its class and every
    subclass that defines its own copy; for a function, every loaded
    ``repro`` module holding it under that name (``from x import f``
    call sites included)."""
    module = importlib.import_module(probe.module)
    if "." in probe.attr:
        class_name, method = probe.attr.split(".", 1)
        classes = [getattr(module, class_name)]
        for cls in classes:
            classes.extend(cls.__subclasses__())
        return [(cls, method) for cls in classes if method in vars(cls)]
    target = getattr(module, probe.attr)
    return [
        (loaded, probe.attr)
        for name, loaded in list(sys.modules.items())
        if (name == "repro" or name.startswith("repro."))
        and vars(loaded).get(probe.attr) is target
    ]


class Tracer:
    """Records spans and counters while its probes are installed.

    Single-threaded by design: the traced pass runs in-process
    (``n_jobs=1``), so a plain stack tracks the parent span.
    """

    def __init__(self, probes: "tuple[Probe, ...]" = PROBES) -> None:
        self.probes = probes
        self.spans: "list[tuple]" = []
        self.counters: "dict[str, int]" = {}
        self.pass_id = ""
        self._stack: "list[int]" = []
        self._next_id = 0
        # (owner, attribute, original object as stored on the owner)
        self._saved: "list[tuple[object, str, object]]" = []

    # -- recording -------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _span_wrapper(self, probe: Probe, func: Callable) -> Callable:
        tracer = self
        name = probe.name
        on_enter = probe.on_enter
        on_result = probe.on_result
        counters = self.counters
        stack = self._stack
        spans = self.spans

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            obj = args[0] if args else None  # ``self`` for the methods with hooks
            before = on_enter(obj) if on_enter is not None else None
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            packets0 = counters.get(PACKETS, 0)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append(
                    (span_id, parent, name, start, end, tracer.pass_id,
                     counters.get(PACKETS, 0) - packets0)
                )
            if on_result is not None:
                on_result(tracer, obj, result, before)
            return result

        return wrapper

    def _count_wrapper(self, probe: Probe, func: Callable) -> Callable:
        counters = self.counters
        name = probe.name

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counters[name] = counters.get(name, 0) + 1
            return func(*args, **kwargs)

        return wrapper

    # -- install / restore -----------------------------------------------

    def install(self) -> None:
        """Wrap every probe target; :meth:`restore` undoes it exactly."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for probe in self.probes:
            for owner, attr in _targets(probe):
                original = vars(owner)[attr]
                if not callable(original):
                    raise TypeError(f"{probe.module}.{probe.attr} is not a plain function")
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(probe, original))

    def _wrap(self, probe: Probe, func: Callable) -> Callable:
        if probe.kind == "count":
            wrapper = self._count_wrapper(probe, func)
        else:
            wrapper = self._span_wrapper(probe, func)
        wrapper.perfbench_probe = probe.name
        return wrapper

    def restore(self) -> None:
        """Put every original object back, in reverse install order."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def snapshot_targets(self) -> "dict[tuple[int, str], object]":
        """Identity map of every probe target on its owners (used to
        prove :meth:`restore` left nothing behind)."""
        return {
            (id(owner), attr): vars(owner)[attr]
            for probe in self.probes
            for owner, attr in _targets(probe)
        }

    @staticmethod
    def unchanged(before: "dict[tuple[int, str], object]",
                  after: "dict[tuple[int, str], object]") -> bool:
        """Whether every attribute in ``before`` is still the same object
        and no attribute in ``after`` is a probe wrapper (modules the
        pass imported add keys, never wrappers)."""
        return all(after.get(key) is value for key, value in before.items()) and not any(
            hasattr(value, "perfbench_probe") for value in after.values()
        )

    # -- output ----------------------------------------------------------

    def write_jsonl(self, path: "Path | str") -> Path:
        """Write every span as one JSON object per line."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(target, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, pass_id, packets in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id, "parent": parent, "name": name,
                            "start": start, "end": end, "pass": pass_id,
                            "packets": packets,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )
        return target


def span_summary(spans: "list[tuple]") -> "dict[str, dict[str, float]]":
    """Per-span-name calls, busy (inclusive) time, max duration, self
    time and packet draws; plus per-layer self time under ``layer:*``.

    Self time is a span's duration minus the time its direct child
    spans cover (children of one single-threaded parent never overlap).
    """
    child_time: "dict[int, float]" = {}
    for _, parent, _, start, end, _, _ in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    summary: "dict[str, dict[str, float]]" = {}
    for span_id, _, name, start, end, _, packets in spans:
        duration = end - start
        own = duration - child_time.get(span_id, 0.0)
        for key in (name, "layer:" + name.split(".", 1)[0]):
            entry = summary.setdefault(
                key, {"calls": 0, "busy_s": 0.0, "max_s": 0.0, "self_s": 0.0, "packets": 0}
            )
            entry["calls"] += 1
            entry["busy_s"] += duration
            entry["max_s"] = max(entry["max_s"], duration)
            entry["self_s"] += own
            entry["packets"] += packets
    return summary
