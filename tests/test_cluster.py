from __future__ import annotations

import random

import numpy as np
import pytest

from minerlink.cluster import (
    SiteCluster,
    UnionFind,
    cluster_matches,
    cluster_report,
    read_clusters,
    write_clusters,
)
from minerlink.errors import DataError
from minerlink.pairing import LabeledPair, PairKey, Provenance


def oracle_components(n_nodes: int, edges: list[tuple[int, int]]) -> set[frozenset[int]]:
    """Brute-force transitive closure via boolean Floyd-Warshall reachability."""
    reach = np.eye(n_nodes, dtype=bool)
    for a, b in edges:
        reach[a, b] = reach[b, a] = True
    for k in range(n_nodes):
        via_k = reach[:, k]
        reach[via_k] |= reach[k]
    return {frozenset(np.flatnonzero(row).tolist()) for row in reach}


def as_match(a: str, b: str) -> LabeledPair:
    return LabeledPair(PairKey.of(a, b), 1, Provenance.PREDICTED)


class TestClusterMatches:
    def test_chain_closure(self):
        clusters = cluster_matches(["A", "B", "C", "D"], [as_match("A", "B"), as_match("B", "C")])
        assert [(c.cluster_id, set(c.members)) for c in clusters] == [
            ("A", {"A", "B", "C"}),
            ("D", {"D"}),
        ]

    def test_no_matches_all_singletons(self):
        clusters = cluster_matches(["C", "A", "B"], [])
        assert [c.members for c in clusters] == [("A",), ("B",), ("C",)]

    def test_sorted_by_cluster_id(self):
        clusters = cluster_matches(["z:9", "a:1", "m:5"], [as_match("z:9", "m:5")])
        assert [c.cluster_id for c in clusters] == ["a:1", "m:5"]

    def test_bare_pair_keys_accepted(self):
        clusters = cluster_matches(["A", "B"], [PairKey("A", "B")])
        assert len(clusters) == 1

    def test_nonmatch_labels_ignored(self):
        nonmatch = LabeledPair(PairKey("A", "B"), 0, Provenance.PREDICTED)
        clusters = cluster_matches(["A", "B"], [nonmatch])
        assert len(clusters) == 2

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(DataError, match="not in the record set"):
            cluster_matches(["A"], [as_match("A", "X")])

    def test_matches_brute_force_oracle_on_random_graphs(self):
        rng = random.Random(29)
        for _ in range(60):
            n = rng.randint(1, 60)
            uris = [f"s:{i:03d}" for i in range(n)]
            n_edges = rng.randint(0, 2 * n)
            edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(n_edges)]
            edges = [(a, b) for a, b in edges if a != b]
            matches = [as_match(uris[a], uris[b]) for a, b in edges]
            clusters = cluster_matches(uris, matches)
            got = {frozenset(int(m.split(":")[1]) for m in c.members) for c in clusters}
            assert got == oracle_components(n, edges)

    def test_partition_property(self):
        rng = random.Random(31)
        uris = [f"s:{i:03d}" for i in range(40)]
        matches = [
            as_match(*rng.sample(uris, 2))
            for _ in range(30)
        ]
        clusters = cluster_matches(uris, matches)
        seen = [m for c in clusters for m in c.members]
        assert sorted(seen) == sorted(uris)  # exactly once each

    def test_idempotence_on_induced_complete_match_set(self):
        rng = random.Random(37)
        uris = [f"s:{i:03d}" for i in range(30)]
        matches = [as_match(*rng.sample(uris, 2)) for _ in range(20)]
        clusters = cluster_matches(uris, matches)
        induced = [
            as_match(a, b)
            for c in clusters
            for i, a in enumerate(c.members)
            for b in c.members[i + 1 :]
        ]
        assert cluster_matches(uris, induced) == clusters

    def test_order_independence(self):
        rng = random.Random(41)
        uris = [f"s:{i:03d}" for i in range(25)]
        matches = [as_match(*rng.sample(uris, 2)) for _ in range(18)]
        baseline = cluster_matches(uris, matches)
        for _ in range(5):
            shuffled = matches[:]
            rng.shuffle(shuffled)
            assert cluster_matches(uris, shuffled) == baseline

    def test_cluster_id_must_be_smallest_member(self):
        with pytest.raises(DataError, match="smallest member"):
            SiteCluster(cluster_id="B", members=("A", "B"))


def _reference_components(records, matches):
    """Components by the per-row loop: bare keys, and labeled pairs of label 1."""
    uf = UnionFind(records)
    for match in matches:
        if isinstance(match, LabeledPair):
            if match.label != 1:
                continue
            match = match.key
        uf.union(match.uri_1, match.uri_2)
    return sorted(tuple(sorted(g)) for g in uf.groups())


def _reference_contradictions(clusters, pairs):
    cluster_of = {m: c.cluster_id for c in clusters for m in c.members}
    return tuple(p.key for p in pairs if p.label == 0 and p.key.uri_1 in cluster_of
                 and cluster_of.get(p.key.uri_1) == cluster_of.get(p.key.uri_2))


class TestRowsWalkedByField:
    """The loops read rows by position (label, or a bare key's uri_2); they
    must agree with the per-row attribute loops on any mix of rows."""

    def test_mixed_rows_equal_the_reference(self):
        rng = random.Random(43)
        for _ in range(80):
            n = rng.randint(2, 40)
            uris = [f"s:{i:03d}" for i in range(n)]
            rows = []
            for _ in range(rng.randint(0, 3 * n)):
                key = PairKey.of(*rng.sample(uris, 2))
                kind = rng.random()
                rows.append(key if kind < 0.2 else LabeledPair(key, int(kind < 0.5), Provenance.PREDICTED))
            clusters = cluster_matches(uris, rows)
            assert [c.members for c in clusters] == _reference_components(uris, rows)
            labeled = [r for r in rows if isinstance(r, LabeledPair)]
            # clusters may also come from elsewhere: a partial set leaves some uris unclustered
            for some in (clusters, clusters[::2]):
                report = cluster_report(some, size_threshold=3, nonmatches=labeled)
                assert report.contradictions == _reference_contradictions(some, labeled)

    def test_unknown_endpoint_named_after_a_nonmatch(self):
        rows = [LabeledPair(PairKey("A", "Y"), 0, Provenance.PREDICTED), PairKey("A", "B"), as_match("B", "X")]
        with pytest.raises(DataError, match=r"match endpoints not in the record set: \['X'\]"):
            cluster_matches(["A", "B"], rows)


class TestUnionFind:
    def test_union_by_size_and_find(self):
        uf = UnionFind(["a", "b", "c", "d"])
        uf.union("a", "b")
        uf.union("c", "d")
        uf.union("a", "c")
        root = uf.find("d")
        assert all(uf.find(x) == root for x in "abcd")

    def test_groups_partition(self):
        uf = UnionFind("abcdef")
        uf.union("a", "b")
        uf.union("e", "f")
        groups = {frozenset(g) for g in uf.groups()}
        assert groups == {frozenset("ab"), frozenset("c"), frozenset("d"), frozenset("ef")}


class TestClusterReport:
    def test_oversized_flagged(self):
        uris = [f"s:{i}" for i in range(6)]
        matches = [as_match(uris[i], uris[i + 1]) for i in range(4)]  # 5-chain + singleton
        clusters = cluster_matches(uris, matches)
        report = cluster_report(clusters, size_threshold=4)
        assert report.cluster_count == 2
        assert report.singleton_count == 1
        assert report.max_cluster_size == 5
        assert report.oversized == (clusters[0].cluster_id,)

    def test_transitivity_contradictions_surfaced(self):
        # A-B and B-C predicted match, A-C predicted non-match: closure merges anyway
        predictions = [
            as_match("A", "B"),
            as_match("B", "C"),
            LabeledPair(PairKey("A", "C"), 0, Provenance.PREDICTED),
        ]
        clusters = cluster_matches(["A", "B", "C"], predictions)
        report = cluster_report(clusters, size_threshold=10, nonmatches=predictions)
        assert report.contradictions == (PairKey("A", "C"),)

    def test_no_contradictions_when_separate(self):
        predictions = [
            as_match("A", "B"),
            LabeledPair(PairKey("C", "D"), 0, Provenance.PREDICTED),
        ]
        clusters = cluster_matches(["A", "B", "C", "D"], predictions)
        report = cluster_report(clusters, nonmatches=predictions)
        assert report.contradictions == ()


class TestClusterIO:
    def test_jsonl_round_trip(self, tmp_path):
        clusters = cluster_matches(["A", "B", "C"], [as_match("A", "C")])
        path = tmp_path / "clusters.jsonl"
        write_clusters(clusters, path)
        assert read_clusters(path) == clusters

    @pytest.mark.parametrize("line, message", [
        (b'{"cluster_id": "B", "members": ["A", "B"]}', "malformed row: cluster_id must be the smallest member uri"),
        (b'{"cluster_id": "C"}', "missing key 'members'"),
        (b"\xff", "malformed row: 'utf-8' codec can't decode"),
    ])
    def test_bad_row_names_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "clusters.jsonl"
        write_clusters(cluster_matches(["A"], []), path)
        with path.open("ab") as fh:
            fh.write(b"\n" + line + b"\n")
        with pytest.raises(DataError, match=f"{path}:3: {message}"):
            read_clusters(path)
