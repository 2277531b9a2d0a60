"""Tests for BFS distances and ECMP next-hop computation.

networkx is the independent oracle for the distances.
"""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.network import Network
from repro.sim.routing import bfs_distances, next_hops
from repro.units import us


def ecmp_next_hops(adjacency, destination):
    """Every node's ECMP group toward ``destination`` (nodes with one)."""
    dist = bfs_distances(adjacency, destination)
    groups = {node: next_hops(adjacency, dist, node) for node in dist}
    return {node: hops for node, hops in groups.items() if hops}


def line_graph(n):
    return {i: [j for j in (i - 1, i + 1) if 0 <= j < n] for i in range(n)}


def diamond():
    # 0 - {1, 2} - 3 : two equal-cost paths.
    return {0: [1, 2], 1: [0, 3], 2: [0, 3], 3: [1, 2]}


class TestBfs:
    def test_line_distances(self):
        dist = bfs_distances(line_graph(5), 0)
        assert dist == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_unreachable_absent(self):
        adj = {0: [1], 1: [0], 2: []}
        dist = bfs_distances(adj, 0)
        assert 2 not in dist

    def test_matches_networkx(self):
        adj = diamond()
        g = nx.Graph([(a, b) for a, peers in adj.items() for b in peers])
        for src in adj:
            ours = bfs_distances(adj, src)
            theirs = nx.shortest_path_length(g, src)
            assert ours == dict(theirs)


class TestEcmp:
    def test_diamond_has_two_next_hops(self):
        hops = ecmp_next_hops(diamond(), destination=3)
        assert hops[0] == (1, 2)
        assert hops[1] == (3,)
        assert hops[2] == (3,)

    def test_destination_not_in_result(self):
        hops = ecmp_next_hops(diamond(), destination=3)
        assert 3 not in hops

    def test_next_hops_sorted(self):
        adj = {0: [3, 1, 2], 1: [0, 4], 2: [0, 4], 3: [0, 4], 4: [1, 2, 3]}
        hops = ecmp_next_hops(adj, destination=4)
        assert hops[0] == (1, 2, 3)

    def test_next_hop_strictly_decreases_distance(self):
        adj = diamond()
        for dst in adj:
            dist = bfs_distances(adj, dst)
            for node, hops in ecmp_next_hops(adj, dst).items():
                for h in hops:
                    assert dist[h] == dist[node] - 1


class TestPathHopCount:
    def test_simple(self):
        net = Network()
        h0, s1, s2, h3 = net.add_host(), net.add_switch(), net.add_switch(), net.add_host()
        for a, b in ((h0, s1), (s1, s2), (s2, h3)):
            net.connect(a, b, rate_bps=10e9, prop_delay_ns=us(1.0))
        assert net.hop_count(h0.node_id, h3.node_id) == 3

    def test_no_path_raises(self):
        net = Network()
        a, b = net.add_host(), net.add_host()
        with pytest.raises(KeyError):
            net.hop_count(a.node_id, b.node_id)


class TestEcmpProperties:
    @given(st.integers(min_value=2, max_value=30), st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_random_connected_graph_routes_reach_destination(self, n, rnd):
        """Following any ECMP choice from any node reaches the destination in
        exactly dist(node) steps — no loops, no dead ends."""
        # Build a random connected graph: a spanning chain plus extra edges.
        adj = {i: set() for i in range(n)}
        for i in range(1, n):
            j = rnd.randrange(i)
            adj[i].add(j)
            adj[j].add(i)
        for _ in range(n):
            a, b = rnd.randrange(n), rnd.randrange(n)
            if a != b:
                adj[a].add(b)
                adj[b].add(a)
        adj = {k: sorted(v) for k, v in adj.items()}
        dst = rnd.randrange(n)
        dist = bfs_distances(adj, dst)
        hops = ecmp_next_hops(adj, dst)
        for start in range(n):
            if start == dst:
                continue
            node, steps = start, 0
            while node != dst:
                choices = hops[node]
                node = choices[rnd.randrange(len(choices))]
                steps += 1
                assert steps <= n, "routing loop detected"
            assert steps == dist[start]
