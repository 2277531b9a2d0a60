"""Shortest-path ECMP routing-table construction.

For every destination host we run a reverse breadth-first search over the
(undirected, unweighted-hop) device graph; a switch's ECMP group toward that
destination is the set of its neighbours whose BFS distance is one less than
its own.  This yields exactly the up/down multipath structure of a fat-tree
(all spine/agg choices on shortest paths) without topology-specific code.

``networkx`` is used for graph bookkeeping and for independent verification
in tests (``nx.shortest_path_length`` must agree with the BFS distances).
Building tables needs none of it, so it is imported where it is used and
simulation runs never load it.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Dict, Iterable, List, Tuple

if TYPE_CHECKING:
    import networkx as nx


def build_device_graph(adjacency: Dict[int, Iterable[int]]) -> nx.Graph:
    """Build an undirected networkx graph from a node -> neighbours map."""
    import networkx as nx

    g = nx.Graph()
    for node, neighbours in adjacency.items():
        g.add_node(node)
        for n in neighbours:
            g.add_edge(node, n)
    return g


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


def ecmp_next_hops(
    adjacency: Dict[int, List[int]],
    destination: int,
) -> Dict[int, Tuple[int, ...]]:
    """Next-hop node ids on shortest paths toward ``destination``.

    Returns a map ``node -> sorted tuple of neighbour ids``; the destination
    itself and unreachable nodes are absent.  Neighbour order is sorted so
    ECMP group indexing is deterministic across runs.
    """
    dist = bfs_distances(adjacency, destination)
    result: Dict[int, Tuple[int, ...]] = {}
    for node in dist:
        hops = next_hops(adjacency, dist, node)
        if hops:
            result[node] = hops
    return result


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


def path_hop_count(adjacency: Dict[int, List[int]], src: int, dst: int) -> int:
    """Number of links on a shortest path between two nodes."""
    dist = bfs_distances(adjacency, dst)
    try:
        return dist[src]
    except KeyError:
        import networkx as nx

        raise nx.NetworkXNoPath(f"no path {src} -> {dst}") from None
