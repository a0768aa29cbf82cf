"""File -> layer map and cProfile aggregation for the traced run.

Layers are this repository's modules.  A source file belongs to exactly
one layer; :func:`layer_of` returns ``None`` for a ``src/repro`` file
that no rule names, and the self-test fails on that instead of letting a
new module land in ``other`` unnoticed.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

#: Profile layers, in the order they are printed.
LAYERS = (
    "simulation.kernel", "simulation.sharded", "engine.channels",
    "engine.operators", "engine.windows", "engine.state", "engine.routing",
    "engine.runtime", "engine.checkpoint", "core", "scaling", "workloads",
    "faults", "telemetry", "other",
)

#: Path relative to ``src/repro`` -> layer.  A key ending in ``/`` names
#: a whole package; the longest matching key wins.
LAYER_OF_PATH = {
    "simulation/__init__.py": "simulation.kernel",
    "simulation/kernel.py": "simulation.kernel",
    "simulation/primitives.py": "simulation.kernel",
    "simulation/calqueue.py": "simulation.kernel",
    "simulation/sharded.py": "simulation.sharded",
    "simulation/shm_ring.py": "simulation.sharded",
    "engine/frames.py": "simulation.sharded",
    "engine/channels.py": "engine.channels",
    "engine/operators.py": "engine.operators",
    "engine/windows.py": "engine.windows",
    "engine/state.py": "engine.state",
    "engine/routing.py": "engine.routing",
    "engine/keys.py": "engine.routing",
    "engine/columnar.py": "engine.routing",
    "engine/__init__.py": "engine.runtime",
    "engine/runtime.py": "engine.runtime",
    "engine/records.py": "engine.runtime",
    "engine/metrics.py": "engine.runtime",
    "engine/graph.py": "engine.runtime",
    "engine/cluster.py": "engine.runtime",
    "engine/introspection.py": "engine.runtime",
    "engine/checkpoint.py": "engine.checkpoint",
    "engine/recovery.py": "engine.checkpoint",
    "core/": "core",
    "scaling/": "scaling",
    "autoscale/": "scaling",
    "workloads/": "workloads",
    # The samplers only the load generators (and the fault RNG) draw from.
    "simulation/randomness.py": "workloads",
    "faults/": "faults",
    "telemetry/": "telemetry",
    # Drivers around the engine, not a layer of it: named here so that
    # "other" is a decision, never a fall-through.
    "experiments/": "other",
    "perf/": "other",
    "cli.py": "other",
    "__init__.py": "other",
    "__main__.py": "other",
}

_PACKAGE_MARK = os.sep + os.path.join("src", "repro") + os.sep


def layer_of(relpath: str) -> Optional[str]:
    """Layer of a path relative to ``src/repro``; None when unmapped."""
    relpath = relpath.replace(os.sep, "/")
    exact = LAYER_OF_PATH.get(relpath)
    if exact is not None:
        return exact
    best = None
    for key, layer in LAYER_OF_PATH.items():
        if key.endswith("/") and relpath.startswith(key):
            if best is None or len(key) > len(best[0]):
                best = (key, layer)
    return best[1] if best else None


def _layer_of_file(filename: str) -> Optional[str]:
    """Layer of a profiled file; None for code outside ``src/repro``."""
    cut = filename.rfind(_PACKAGE_MARK)
    if cut < 0:
        return None
    return layer_of(filename[cut + len(_PACKAGE_MARK):]) or "other"


def aggregate(stats: Dict, top: int = 25) -> Dict:
    """Fold ``pstats.Stats(...).stats`` into per-layer rows.

    Self time of a function defined in ``src/repro`` goes to its file's
    layer.  Self time of anything else (C builtins, stdlib, numpy) is
    charged to the nearest repro callers, following cProfile's per-caller
    split up through non-repro frames (``select.poll`` under
    ``multiprocessing.connection.wait`` under ``sharded.py`` is the
    sharded layer waiting); what no repro function reaches stays in
    ``other``.  Calls are counted for repro functions only.
    """
    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    functions: Dict[str, List] = {layer: [] for layer in LAYERS}
    shares: Dict[tuple, Dict[str, float]] = {}

    def caller_shares(key, visiting=()):
        """Layer -> share of ``key``'s self time, for non-repro code."""
        if key in shares:
            return shares[key]
        callers = stats[key][4] if key in stats else {}
        total = sum(edge[2] for edge in callers.values())
        split: Dict[str, float] = {}
        for caller, edge in callers.items():
            weight = edge[2] / total if total > 0 else 1.0 / len(callers)
            layer = _layer_of_file(caller[0])
            if layer is not None:
                parts = {layer: 1.0}
            elif caller in visiting or caller == key:
                parts = {"other": 1.0}
            else:
                parts = caller_shares(caller, visiting + (key,))
            for name, part in parts.items():
                split[name] = split.get(name, 0.0) + weight * part
        shares[key] = split or {"other": 1.0}
        return shares[key]

    total_calls = 0
    for key, (_cc, nc, tt, _ct, _callers) in stats.items():
        filename, line, name = key
        total_calls += nc
        layer = _layer_of_file(filename)
        if layer is not None:
            self_s[layer] += tt
            calls[layer] += nc
            functions[layer].append(
                (tt, nc, f"{os.path.basename(filename)}:{line}", name))
            continue
        split = caller_shares(key)
        for target, share in split.items():
            self_s[target] += tt * share
        functions["other"].append(
            (tt * split.get("other", 0.0), nc, filename, name))
    total = sum(self_s.values()) or 1.0
    rows = []
    for layer in LAYERS:
        hot = sorted(functions[layer], reverse=True)[:top]
        rows.append({
            "layer": layer,
            "self_share": self_s[layer] / total,
            "calls": calls[layer],
            "top": [{"where": where, "function": name, "calls": nc,
                     "self_s": tt} for tt, nc, where, name in hot],
        })
    return {"rows": rows, "total_calls": total_calls, "total_self_s": total}
