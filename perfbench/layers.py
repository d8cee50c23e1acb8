"""Host-time attribution by layer: the module->layer map and a profiler.

The traced run splits the simulator's own host time into named
buckets, the way the paper's SPASM separates execution time into
overhead buckets.  It uses ``cProfile``, a profiler hook: callables are
not wrapped, so the identity comparisons the compiled event core makes
(``sim._flat_mctx`` and friends) see the same objects as in an
untraced run, and the run takes the same path.

Self time of ``repro`` functions goes to their module's layer.  Self
time of anything else -- builtins, the C event loop, numpy, the
standard library -- goes to the layers of its callers, in proportion to
the time each caller spent in it, so a layer's figure includes the
library work it asked for.  Time with no ``repro`` caller on the stack
is the harness's own.
"""

from __future__ import annotations

import cProfile
import pstats
from pathlib import Path
from typing import Dict, List, Tuple

from common import SRC

#: Layers reported per traced run, in report order.
LAYERS = (
    "apps",
    "core.machine",
    "core.target",
    "core.coherence",
    "memory.cache",
    "memory.address",
    "network",
    "core.logp_net",
    "core.logp",
    "engine",
    "faults",
    "checkers",
    "service",
    "exec.store",
    "exec.pool",
    "support",
)
#: Where time with no repro caller goes (not a layer of the program).
HARNESS = "harness"

#: Module (or package, covering every module below it) -> layer.
#: ``support`` holds configuration, specs, the runner and the
#: tooling around the simulator proper.  Every module under
#: ``src/repro`` must resolve; see :func:`unmapped_modules`.
MODULE_LAYERS = {
    "repro.apps": "apps",
    "repro.core.machine": "core.machine",
    "repro.core.ops": "core.machine",
    "repro.core.ideal_machine": "core.machine",
    "repro.core.target": "core.target",
    "repro.core.coherence": "core.coherence",
    "repro.memory.directory": "core.coherence",
    "repro.memory.states": "core.coherence",
    "repro.memory.cache": "memory.cache",
    "repro.memory.address": "memory.address",
    "repro.network": "network",
    "repro.core.logp_net": "core.logp_net",
    "repro.core.logp": "core.logp",
    "repro.core.clogp": "core.logp",
    "repro.engine": "engine",
    "repro.faults": "faults",
    "repro.checkers": "checkers",
    "repro.service": "service",
    "repro.exec.store": "exec.store",
    "repro.exec.backend": "exec.pool",
    "repro.exec.supervisor": "exec.pool",
    "repro.exec.policy": "exec.pool",
    "repro.exec": "exec.pool",
    "repro.core.runner": "support",
    "repro.core.accounting": "support",
    "repro.core.params": "support",
    "repro.core": "support",
    "repro.memory": "memory.cache",
    "repro.config": "support",
    "repro.runspec": "support",
    "repro.errors": "support",
    "repro.units": "support",
    "repro.signals": "support",
    "repro.cli": "support",
    "repro.experiments": "support",
    "repro.analysis": "support",
    "repro.trace": "support",
    "repro.chaos": "support",
    "repro": "support",
    "repro.__main__": "support",
}


def module_name(path: Path, src: Path = SRC) -> str:
    """Dotted module name of a file under ``src``."""
    parts = list(path.relative_to(src).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def layer_of_module(module: str) -> str:
    """Layer of a dotted ``repro`` module; KeyError if unmapped."""
    if module in MODULE_LAYERS:
        return MODULE_LAYERS[module]
    package = module
    while "." in package:
        package = package.rpartition(".")[0]
        if package in _PACKAGE_PREFIXES:
            return MODULE_LAYERS[package]
    raise KeyError(module)


#: Packages whose every submodule belongs to one layer.  The mixed
#: packages (``repro``, ``repro.core``, ``repro.exec``, ``repro.memory``)
#: are not here: a new module in them must be named in the map.
_PACKAGE_PREFIXES = frozenset({
    "repro.apps", "repro.network", "repro.engine", "repro.faults",
    "repro.checkers", "repro.service", "repro.experiments",
    "repro.analysis", "repro.trace", "repro.chaos",
})


def repro_modules(src: Path = SRC) -> List[str]:
    return sorted(module_name(path, src)
                  for path in (src / "repro").rglob("*.py"))


def unmapped_modules(src: Path = SRC) -> List[str]:
    """Modules under ``src/repro`` that no map entry covers."""
    missing = []
    for module in repro_modules(src):
        try:
            layer_of_module(module)
        except KeyError:
            missing.append(module)
    return missing


def check_map(src: Path = SRC) -> None:
    missing = unmapped_modules(src)
    if missing:
        raise SystemExit(
            "perfbench: modules with no layer in perfbench/layers.py: "
            + ", ".join(missing)
        )


class LayerProfile:
    """Attributes a ``cProfile`` capture to layers."""

    def __init__(self, src: Path = SRC):
        self._repro_root = str(src / "repro") + "/"
        self._src = src
        self._layer_by_file: Dict[str, str] = {}

    def layer_of_file(self, filename: str) -> str:
        """Layer of a profiled code object's file; '' if not repro."""
        layer = self._layer_by_file.get(filename)
        if layer is None:
            layer = ""
            if filename.startswith(self._repro_root):
                layer = layer_of_module(module_name(Path(filename),
                                                    self._src))
            self._layer_by_file[filename] = layer
        return layer

    def attribute(self, stats: Dict) -> Tuple[Dict[str, float],
                                               Dict[str, int]]:
        """(self seconds, calls) per layer from ``pstats.Stats.stats``."""
        shares: Dict[Tuple, Dict[str, float]] = {}

        def share(func, active) -> Dict[str, float]:
            if func in shares:
                return shares[func]
            layer = self.layer_of_file(func[0])
            if layer:
                result = {layer: 1.0}
            elif func in active or func not in stats:
                result = {HARNESS: 1.0}
            else:
                active.add(func)
                # What ``func`` calls splits like ``func``'s cumulative
                # time per caller.
                callers = stats[func][4]
                weights = {caller: edge[3] for caller, edge in callers.items()}
                total = sum(weights.values())
                result = {}
                if total <= 0:
                    result = {HARNESS: 1.0}
                else:
                    for caller, weight in weights.items():
                        for name, part in share(caller, active).items():
                            result[name] = (result.get(name, 0.0)
                                            + part * weight / total)
                active.discard(func)
            shares[func] = result
            return result

        self_s: Dict[str, float] = dict.fromkeys(LAYERS + (HARNESS,), 0.0)
        calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        for func, (_cc, ncalls, tottime, _ct, callers) in stats.items():
            layer = self.layer_of_file(func[0])
            if layer:
                self_s[layer] += tottime
                calls[layer] += ncalls
                continue
            # Library or builtin: charge each caller edge's share.
            for caller, edge in callers.items():
                for name, part in share(caller, set()).items():
                    self_s[name] += part * edge[2]
            unattributed = tottime - sum(edge[2] for edge in callers.values())
            if unattributed > 0:
                self_s[HARNESS] += unattributed
        return self_s, calls


class Tracer:
    """Profiles a block of code and accumulates per-layer totals."""

    def __init__(self):
        self.profile = LayerProfile()
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS + (HARNESS,),
                                                      0.0)
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)

    def run(self, func, *args):
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            return func(*args)
        finally:
            profiler.disable()
            self.absorb(pstats.Stats(profiler).stats)

    def absorb(self, stats: Dict) -> None:
        self_s, calls = self.profile.attribute(stats)
        for name, value in self_s.items():
            self.self_s[name] += value
        for name, value in calls.items():
            self.calls[name] += value
