"""Fold a cProfile call graph into a per-layer wall-time budget.

The traced pass profiles a workload with :mod:`cProfile` (installed from
here — nothing under ``src/`` changes and ``Kernel.perf/profiler/flow``
stay ``None``).  Spans are the profiler's call/return pairs, the parent
of a span is its caller, and a *layer* is a set of ``repro`` modules.

A frame belongs to the layer of the nearest enclosing ``repro`` function,
so builtin and stdlib time (heapq, json, random, numpy) is charged to the
layer that called it and the layers sum to the profiled time by
construction.  cProfile records one level of caller per function, not
whole stacks, so a stdlib function reached from two layers splits its
self time between them in proportion to the inclusive time each caller
edge carried — exact for leaves (every builtin), gprof's approximation
for stdlib code that calls further stdlib code.

cProfile charges its own per-call cost to the functions it times, which
inflates call-heavy layers: use the budget to find where time goes, and
the untraced end-to-end numbers to claim a gain.
"""

from __future__ import annotations

import sysconfig
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
_SRC = str(ROOT / "src") + "/"
_STDLIB = sysconfig.get_paths()["stdlib"] + "/"

LAYERS = (
    "sim",
    "net.network",
    "net.codec",
    "core.client",
    "core.site",
    "core.avantan",
    "scale.driver",
    "scale.site",
    "scale.batching",
    "runtime",
    "faults",
    "storage",
    "resilience",
    "obs",
    "prediction",
    "workload",
    "harness",
    # Anything unmapped, reported so a renamed module is never lost.
    "other",
)

#: Whole packages (the module itself or anything below it).
_PACKAGES = {
    "repro.sim": "sim",
    "repro.core.avantan": "core.avantan",
    "repro.runtime": "runtime",
    "repro.faults": "faults",
    "repro.storage": "storage",
    "repro.resilience": "resilience",
    "repro.obs": "obs",
    "repro.prediction": "prediction",
    "repro.workload": "workload",
    "repro.harness": "harness",
    "repro.metrics": "harness",
    # The live substrate's kernel is the stdlib event loop: it plays the
    # part repro.sim plays for the simulated workloads.
    "asyncio": "runtime",
    "selectors": "runtime",
}

#: Single modules.  Listed one by one on purpose: a new module in
#: ``repro.core`` or ``repro.net`` lands in ``other`` until someone
#: decides which layer it is.
_MODULES = {
    "repro.net.network": "net.network",
    "repro.net.message": "net.network",
    "repro.net.regions": "net.network",
    "repro.net.partition": "net.network",
    "repro.net.transport": "net.network",
    "repro.net.codec": "net.codec",
    "repro.net.faults": "faults",
    "repro.core.client": "core.client",
    "repro.core.app_manager": "core.client",
    "repro.core.directory": "core.client",
    "repro.core.requests": "core.client",
    "repro.core.site": "core.site",
    "repro.core.entity": "core.site",
    "repro.core.reallocation": "core.site",
    "repro.core.cluster": "core.site",
    "repro.core.hierarchy": "core.site",
    "repro.core.config": "core.site",
    "repro.core.messages": "core.avantan",
    "repro.scale.harness": "scale.driver",
    "repro.scale.site": "scale.site",
    "repro.scale.entity_table": "scale.site",
    "repro.scale.shards": "scale.site",
    "repro.scale.batching": "scale.batching",
}

#: Waiting for a socket or a timer is not work any layer did.
_IDLE = ("'select.epoll'", "'select.poll'", "select.select")


def layer_of_module(module: str) -> str | None:
    """The layer a dotted module name belongs to; None for foreign code."""
    layer = _MODULES.get(module)
    if layer is not None:
        return layer
    parts = module.split(".")
    for depth in range(len(parts), 0, -1):
        layer = _PACKAGES.get(".".join(parts[:depth]))
        if layer is not None:
            return layer
    return "other" if parts[0] == "repro" else None


def _module_of_file(filename: str) -> str:
    for base in (_SRC, _STDLIB):
        if filename.startswith(base):
            module = filename[len(base):].removesuffix(".py").replace("/", ".")
            return module.removesuffix(".__init__")
    return ""


class _Graph:
    """One profile's functions and caller edges, keyed by stable names."""

    def __init__(self, stats) -> None:
        #: label -> [self seconds, calls]
        self.nodes: dict[str, list] = {}
        #: label -> layer, or None when the function inherits its caller's.
        self.layer: dict[str, str | None] = {}
        #: (caller, callee) -> [calls, inclusive seconds]
        self.edges: dict[tuple[str, str], list] = {}
        file_modules: dict[str, str] = {}
        labels: dict[object, str] = {}

        def label_of(code) -> str:
            label = labels.get(code)
            if label is not None:
                return label
            if isinstance(code, str):
                label, layer = code, None
            else:
                module = file_modules.get(code.co_filename)
                if module is None:
                    module = _module_of_file(code.co_filename)
                    file_modules[code.co_filename] = module
                where = module or code.co_filename
                label = f"{where}:{code.co_qualname}:{code.co_firstlineno}"
                layer = layer_of_module(module) if module else None
            labels[code] = label
            self.layer[label] = layer
            return label

        for entry in stats:
            caller = label_of(entry.code)
            node = self.nodes.setdefault(caller, [0.0, 0])
            node[0] += entry.inlinetime
            node[1] += entry.callcount
            for sub in entry.calls or ():
                callee = label_of(sub.code)
                self.nodes.setdefault(callee, [0.0, 0])
                edge = self.edges.setdefault((caller, callee), [0, 0.0])
                edge[0] += sub.callcount
                edge[1] += sub.totaltime

    def inherited_layers(self) -> dict[str, dict[str, float]]:
        """For each foreign function, the layers its time is charged to.

        The weights of a function are the inclusive-time-weighted mix of
        its callers' layers; a caller that is itself foreign contributes
        its own mix, so the table is a fixed point reached by sweeping
        (stdlib call chains are a handful of frames deep).
        """
        incoming: dict[str, list[tuple[str, float]]] = defaultdict(list)
        for (caller, callee), (calls, inclusive) in self.edges.items():
            if self.layer[callee] is None and caller != callee:
                # A zero-time edge must still carry its caller's layer.
                incoming[callee].append((caller, inclusive + 1e-12 * calls))
        weights: dict[str, dict[str, float]] = {
            label: {} for label, layer in self.layer.items() if layer is None
        }
        for _ in range(32):
            moved = 0.0
            for label in weights:
                mix: dict[str, float] = defaultdict(float)
                for caller, amount in incoming.get(label, ()):
                    layer = self.layer[caller]
                    if layer is not None:
                        mix[layer] += amount
                    else:
                        for inherited, share in weights[caller].items():
                            mix[inherited] += amount * share
                total = sum(mix.values())
                new = {layer: amount / total for layer, amount in mix.items()} if total else {}
                moved += sum(
                    abs(new.get(layer, 0.0) - weights[label].get(layer, 0.0))
                    for layer in set(new) | set(weights[label])
                )
                weights[label] = new
            if moved < 1e-9:
                break
        # Roots (the benchmark's own frames) and anything only they reach.
        return {label: mix or {"other": 1.0} for label, mix in weights.items()}


def fold(profiles: dict[str, object]) -> dict:
    """Per-layer budget of one traced unit from its per-phase profiles."""
    layers = {
        layer: {"self_s": 0.0, "calls": 0, "self_s_by_phase": {}} for layer in LAYERS
    }
    edges: dict[tuple[str, str], list] = defaultdict(lambda: [0.0, 0.0])
    functions: dict[str, list] = defaultdict(lambda: [0.0, 0, ""])
    idle = profiled = 0.0
    for phase, profile in profiles.items():
        graph = _Graph(profile.getstats())
        weights = graph.inherited_layers()

        def mix_of(label: str) -> dict[str, float]:
            layer = graph.layer[label]
            return {layer: 1.0} if layer is not None else weights[label]

        for label, (self_s, calls) in graph.nodes.items():
            profiled += self_s
            if any(marker in label for marker in _IDLE):
                idle += self_s
                continue
            mix = mix_of(label)
            for layer, share in mix.items():
                row = layers[layer]
                row["self_s"] += self_s * share
                by_phase = row["self_s_by_phase"]
                by_phase[phase] = by_phase.get(phase, 0.0) + self_s * share
            if graph.layer[label] is not None:
                layers[graph.layer[label]]["calls"] += calls
            entry = functions[label]
            entry[0] += self_s
            entry[1] += calls
            entry[2] = max(mix, key=mix.get)
        for (caller, callee), (calls, inclusive) in graph.edges.items():
            target = graph.layer[callee]
            if target is None:
                continue
            for source, share in mix_of(caller).items():
                if source != target:
                    edge = edges[(source, target)]
                    edge[0] += calls * share
                    edge[1] += inclusive * share
    top = sorted(functions.items(), key=lambda item: -item[1][0])[:15]
    return {
        "profiled_s": profiled,
        "idle_s": idle,
        "layers": layers,
        "edges": [
            {
                "from": source,
                "to": target,
                "calls": round(calls, 1),
                "inclusive_s": inclusive,
            }
            for (source, target), (calls, inclusive) in sorted(
                edges.items(), key=lambda item: -item[1][1]
            )
        ],
        "top_functions": [
            {"function": label, "layer": layer, "self_s": self_s, "calls": calls}
            for label, (self_s, calls, layer) in top
        ],
        "calls_by_function": {
            label: calls for label, (_, calls, _) in functions.items()
        },
    }
