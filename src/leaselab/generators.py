"""Instance generators: structured graphs, connected G(n,p), and a permit-stressing adversary."""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from .errors import ConfigError, Disconnected
from .graphs import Graph, build_graph
from .instances import Instance, make_instance
from .leases import LeaseCatalog, as_whole


GENERATOR_KINDS = ("path", "star", "grid", "random-gnp-connected", "pp-adversary")
# every parameter name some kind reads; one params dict may serve every kind
PARAM_NAMES = ("n", "p", "rows", "cols", "horizon", "T", "k", "L")
GNP_TRIES = 500  # G(n, p) samples drawn before giving up on a connected one

# canonical catalogs by lease count; durations powers of two, dyadic costs
_CANONICAL = {
    1: ((1, 1),),
    2: ((1, 1), (4, 2)),
    3: ((1, 1), (4, 2), (8, 3)),
    4: ((1, 1), (4, 2), (8, 3), (32, 6)),
}


def canonical_catalog(lease_count: int) -> LeaseCatalog:
    if lease_count not in _CANONICAL:
        raise ConfigError(f"no canonical catalog with {lease_count} lease types")
    return LeaseCatalog.from_pairs(_CANONICAL[lease_count])


def burst_times(horizon: int) -> List[int]:
    """Nested bursty request times 0, 1, 3, 7, ... below the horizon.

    Exponentially spaced days hit every lease scale, the pattern behind the
    parking-permit lower bound.
    """
    times = [0]
    j = 0
    while (1 << (j + 1)) - 1 < horizon:
        times.append((1 << (j + 1)) - 1)
        j += 1
    return times


def _path_edges(n: int) -> List[Tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def _star_edges(n: int) -> List[Tuple[int, int]]:
    return [(0, i) for i in range(1, n)]


def _grid_edges(rows: int, cols: int) -> List[Tuple[int, int]]:
    edges = []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                edges.append((u, u + 1))
            if r + 1 < rows:
                edges.append((u, u + cols))
    return edges


def _gnp_connected(n: int, p: float, rng: random.Random) -> Graph:
    for _ in range(GNP_TRIES):  # one draw per pair, in pair order, without listing the pairs
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        try:
            return build_graph(n, edges)
        except Disconnected:
            continue
    raise ConfigError(f"no connected G({n}, {p}) sample after {GNP_TRIES} tries")


def _uniform_requests(n: int, steps: int, size: int, rng: random.Random) -> List[Tuple[int, List[int]]]:
    return [(t, sorted(rng.sample(range(n), min(size, n)))) for t in range(1, steps + 1)]


def _param(params: Dict, key: str, default, kind=as_whole):
    """Generator parameter ``key`` read by ``kind``; a value it rejects raises ConfigError."""
    try:
        return kind(params.get(key, default))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"parameter {key}={params[key]!r}: {exc}") from None


def gen_instance(kind: str, params: Dict, rng: random.Random) -> Instance:
    """Build a validated instance; deterministic for a given seeded rng."""
    if kind not in GENERATOR_KINDS:
        raise ConfigError(f"unknown generator kind {kind!r}")
    unknown = sorted(set(params) - set(PARAM_NAMES))
    if unknown:
        raise ConfigError(f"no generator reads parameter {', '.join(unknown)}")
    for key in ("rows", "cols", "k", "horizon", "T"):  # sizes; n has its own checks
        if _param(params, key, 1) < 1:
            raise ConfigError(f"parameter {key}={params[key]} must be at least 1")
    lease_count = _param(params, "L", 1)
    catalog = canonical_catalog(lease_count)
    steps = _param(params, "T", 2)
    size = _param(params, "k", 1)

    if kind == "pp-adversary":
        n = _param(params, "n", 4)
        if n < 2:
            raise ConfigError("pp-adversary wants a star, n >= 2")
        graph = build_graph(n, _star_edges(n))
        horizon = _param(params, "horizon", catalog.max_duration())
        leaves = list(range(1, n))
        requests = [
            (t, [leaves[i % len(leaves)]]) for i, t in enumerate(burst_times(horizon))
        ]
        return make_instance(graph, catalog, requests)

    if kind == "path":
        n = _param(params, "n", 3)
        graph = build_graph(n, _path_edges(n))
    elif kind == "star":
        n = _param(params, "n", 4)
        graph = build_graph(n, _star_edges(n))
    elif kind == "grid":
        rows = _param(params, "rows", 2)
        cols = _param(params, "cols", 3)
        graph = build_graph(rows * cols, _grid_edges(rows, cols))
    else:  # random-gnp-connected
        n = _param(params, "n", 6)
        p = _param(params, "p", 0.4, float)
        if not 0 <= p <= 1:  # NaN fails this too
            raise ConfigError(f"parameter p={p} is not a probability in [0, 1]")
        graph = _gnp_connected(n, p, rng)

    requests = _uniform_requests(graph.node_count, steps, size, rng)
    return make_instance(graph, catalog, requests)
