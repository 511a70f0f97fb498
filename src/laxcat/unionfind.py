"""Union-find over hashable keys, used for all set-level quotients."""

from collections.abc import Hashable, Iterable


class UnionFind:
    def __init__(self, items: Iterable[Hashable] = ()):
        self.parent: dict = {}
        for x in items:
            self.add(x)

    def add(self, x) -> None:
        if x not in self.parent:
            self.parent[x] = x

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        # path compression
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y) -> bool:
        """Merge the classes of x and y; return True if they were distinct."""
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        # deterministic orientation: smaller key wins as representative
        if ry < rx:
            rx, ry = ry, rx
        self.parent[ry] = rx
        return True

    def classes(self) -> dict:
        """Map each canonical representative to the sorted list of members.

        The representative is the least member of its class, so quotient
        constructions inherit a deterministic naming.
        """
        out: dict = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        canonical = {}
        for members in out.values():
            members.sort()
            canonical[members[0]] = members
        return canonical
