"""Shortest-path ECMP routing-table construction.

For every destination host we run a reverse breadth-first search over the
(undirected, unweighted-hop) device graph; a switch's ECMP group toward that
destination is the set of its neighbours whose BFS distance is one less than
its own.  This yields exactly the up/down multipath structure of a fat-tree
(all spine/agg choices on shortest paths) without topology-specific code.

:class:`repro.sim.network.Network` keeps one search per destination and
derives its ECMP groups, paths and hop counts from it.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Tuple


def bfs_distances(adjacency: Dict[int, List[int]], source: int) -> Dict[int, int]:
    """Hop distances from ``source`` to every reachable node."""
    dist = {source: 0}
    q = deque([source])
    while q:
        u = q.popleft()
        du = dist[u]
        for v in adjacency[u]:
            if v not in dist:
                dist[v] = du + 1
                q.append(v)
    return dist


def next_hops(
    adjacency: Dict[int, List[int]], dist: Dict[int, int], node: int
) -> Tuple[int, ...]:
    """``node``'s neighbours one hop closer to the BFS root of ``dist``, sorted.

    Empty for the root itself and for a node ``dist`` does not reach.
    """
    d = dist.get(node)
    if not d:
        return ()
    return tuple(sorted(v for v in adjacency[node] if dist.get(v, -1) == d - 1))
