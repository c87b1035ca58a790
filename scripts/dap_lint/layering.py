"""The module-layering DAG the `layering` rule enforces.

Modules are the direct children of src/ (src/<module>/...). An edge
A -> B means "A may include headers from B". The graph below is the
*intended* architecture (also drawn in DESIGN.md); the rule fails on
any project include that is not a forward edge of this DAG, which is
exactly what makes an accidental upward include (e.g. wire/ reaching
into dap/) a lint failure instead of a slow-motion architecture drift.

Layer order (low to high):

    common                      foundation: bytes, rng, codec, parallel
    obs, wire                   telemetry; packet formats  (common only)
    crypto, game                primitives + instrumentation; game theory
    sim                         clocks, channels, event queue
    tesla                       TESLA baselines (uses crypto, sim, wire)
    dap                         the paper's protocol (extends tesla)
    core, fleet                 top-level drivers; fleet sim
    strategy                    adaptive adversaries, cooperative
                                verification, MABS baseline (may use
                                game + fleet + tesla; game can never
                                depend back on strategy)
    analysis                    experiments (may also drive fleet and
                                strategy scenarios)
"""

from typing import Dict, List, Tuple

# module -> modules it may include (itself is always allowed).
ALLOWED: Dict[str, Tuple[str, ...]] = {
    "common": (),
    "obs": ("common",),
    "wire": ("common",),
    "crypto": ("common", "obs"),
    "game": ("common", "obs"),
    "sim": ("common", "obs", "wire"),
    "tesla": ("common", "obs", "wire", "crypto", "sim"),
    "dap": ("common", "obs", "wire", "crypto", "sim", "tesla"),
    "core": ("common", "obs", "sim", "game", "dap"),
    "fleet": ("common", "obs", "wire", "crypto", "sim", "tesla", "dap"),
    "strategy": ("common", "obs", "wire", "crypto", "sim", "game", "tesla",
                 "dap", "fleet"),
    "analysis": ("common", "obs", "crypto", "sim", "game", "tesla", "dap",
                 "fleet", "strategy"),
}

MODULES = frozenset(ALLOWED)


def module_of(rel: str) -> str:
    """Module name for a path like src/<module>/file.h, else ''."""
    parts = rel.split("/")
    if len(parts) >= 3 and parts[0] == "src" and parts[1] in MODULES:
        return parts[1]
    return ""


def include_target_module(path: str) -> str:
    """Module a project include points into ('' when not a module
    header — system headers and test helpers are out of scope)."""
    head = path.split("/", 1)[0]
    return head if head in MODULES and "/" in path else ""


def check_edge(from_module: str, to_module: str) -> bool:
    """True when from_module may include to_module."""
    if from_module == to_module:
        return True
    return to_module in ALLOWED.get(from_module, ())


def verify_acyclic() -> List[str]:
    """Sanity check on the table itself: returns the modules on a cycle
    (empty = the graph is a DAG). Run by the self-test."""
    state: Dict[str, int] = {}  # 0 visiting, 1 done
    cyclic: List[str] = []

    def visit(mod: str) -> bool:
        if state.get(mod) == 1:
            return True
        if state.get(mod) == 0:
            return False
        state[mod] = 0
        for dep in ALLOWED.get(mod, ()):
            if not visit(dep):
                cyclic.append(mod)
        state[mod] = 1
        return True

    for mod in sorted(ALLOWED):
        visit(mod)
    return sorted(set(cyclic))
