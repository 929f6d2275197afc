"""Transitive closure of pairwise match decisions into site clusters.

Records are nodes, predicted matches are edges; a cluster is a connected
component. Union-find with path compression and union by size keeps the
closure near-linear at full-database scale. Over-merged clusters (a known
hazard around region-sized entries) are surfaced by the report, never
silently dropped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Sequence

from .errors import DataError
from .pairing import LabeledPair, PairKey
from .records import write_lines


class UnionFind:
    """Disjoint sets over arbitrary hashable items."""

    def __init__(self, items: Iterable[str] = ()):
        self._parent: dict[str, str] = {}
        self._size: dict[str, int] = {}
        for item in items:
            self.add(item)

    def add(self, item: str) -> None:
        if item not in self._parent:
            self._parent[item] = item
            self._size[item] = 1

    def find(self, item: str) -> str:
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:  # path compression
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]

    def groups(self) -> list[list[str]]:
        by_root: dict[str, list[str]] = {}
        for item in self._parent:
            by_root.setdefault(self.find(item), []).append(item)
        return list(by_root.values())


@dataclass(frozen=True)
class SiteCluster:
    """One linked mineral site: members plus a deterministic id.

    The id is the lexicographically smallest member uri, so cluster naming
    is stable and auditable.
    """

    cluster_id: str
    members: tuple[str, ...]  # sorted

    def __post_init__(self):
        if not self.members:
            raise DataError("a cluster must have at least one member")
        if self.cluster_id != self.members[0]:
            raise DataError("cluster_id must be the smallest member uri")


_LABEL = itemgetter(1)


def cluster_matches(records: Sequence[str], matches: Sequence[LabeledPair]) -> list[SiteCluster]:
    """Connected components of the match graph, singletons included.

    Pairs with label 0 are ignored. Output is sorted by cluster_id.
    """
    uf = UnionFind(records)
    known = set(records)
    for key, _, _, _ in compress(matches, map(_LABEL, matches)):  # one C-level pass keeps the matches
        unknown = {u for u in key if u not in known}
        if unknown:
            raise DataError(f"match endpoints not in the record set: {sorted(unknown)}")
        uf.union(*key)

    clusters = []
    for group in uf.groups():
        members = tuple(sorted(group))
        clusters.append(SiteCluster(cluster_id=members[0], members=members))
    clusters.sort(key=lambda c: c.cluster_id)
    return clusters


@dataclass(frozen=True)
class ClusterReport:
    cluster_count: int
    singleton_count: int
    max_cluster_size: int
    oversized: tuple[str, ...]  # cluster ids above the size threshold
    contradictions: tuple[PairKey, ...]  # non-match pairs merged anyway


def cluster_report(
    clusters: Sequence[SiteCluster],
    size_threshold: int = 10,
    nonmatches: Sequence[LabeledPair] | None = None,
) -> ClusterReport:
    """Flag suspicious closures: oversized clusters and transitivity conflicts.

    A contradiction is a pair the matcher labeled non-match whose endpoints
    ended up in the same cluster anyway (merged through other edges). Both
    signals are reported for audit, not acted on.
    """
    # only a cluster of two or more can hold both ends of a pair, so only
    # their members are looked up, and most pairs stop at their uri_1
    cluster_of = {m: c.cluster_id for c in clusters if len(c.members) > 1 for m in c.members}.get
    contradictions = []
    for pair in nonmatches or ():
        if pair.label != 0:
            continue
        key = pair.key
        ca = cluster_of(key.uri_1)
        if ca is not None and ca == cluster_of(key.uri_2):
            contradictions.append(key)
    sizes = [len(c.members) for c in clusters]
    return ClusterReport(
        cluster_count=len(clusters),
        singleton_count=sum(s == 1 for s in sizes),
        max_cluster_size=max(sizes, default=0),
        oversized=tuple(c.cluster_id for c in clusters if len(c.members) > size_threshold),
        contradictions=tuple(contradictions),
    )


def write_clusters(clusters: Iterable[SiteCluster], path: str | Path) -> None:
    write_lines((json.dumps({"cluster_id": c.cluster_id, "members": list(c.members)}) + "\n" for c in clusters), path)

