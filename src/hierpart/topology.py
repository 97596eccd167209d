"""Hardware topology trees and the group collectives defined over them.

A topology is an ordered list of levels, root first, e.g.
``[("node", 2), ("socket", 2), ("core", 4)]``.  Leaves are numbered
depth-first, so the leaf number is the rank id and every group of ranks
below a tree vertex is a contiguous rank range.  The lowest rank of a group
acts as its leader.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from .runtime import RankContext


@dataclass(frozen=True)
class TopologyTree:
    """Uniform-arity hardware hierarchy; total_ranks = product of arities."""

    levels: tuple[tuple[str, int], ...]
    # _below[i]: leaf ranks below one vertex at depth i (the root at 0),
    # the product of the arities of levels i.., computed once.
    _below: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        below = [1]
        for _, arity in reversed(self.levels):
            below.append(below[-1] * arity)
        object.__setattr__(self, "_below", tuple(reversed(below)))

    @property
    def total_ranks(self) -> int:
        return self._below[0]

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def level_name(self, level: int) -> str:
        return self.levels[level][0]

    def group_size(self, level: int) -> int:
        """Number of leaf ranks below one level-``level`` vertex."""
        return self._below[level + 1]

    def group_count(self, level: int) -> int:
        return self._below[0] // self._below[level + 1]

    def group_index(self, rank: int, level: int) -> int:
        return rank // self.group_size(level)

    def group_members(self, level: int, index: int) -> range:
        size = self.group_size(level)
        return range(index * size, (index + 1) * size)

    def check_level(self, level: int, name: str = "level") -> None:
        """Reject a level outside the tree; the message calls it ``name``."""
        if not (0 <= level < self.n_levels):
            raise ValueError(f"{name} {level} outside 0..{self.n_levels - 1}")

    def group_of(self, rank: int, level: int) -> range:
        """The ranks of ``rank``'s level-``level`` group, leader first."""
        self.check_level(level)
        return self.group_members(level, self.group_index(rank, level))

    def same_node(self, a: int, b: int) -> bool:
        """True when both ranks sit under the same level-0 vertex."""
        return self.group_index(a, 0) == self.group_index(b, 0)

    def to_doc(self) -> dict[str, Any]:
        return {"levels": [{"name": n, "arity": a} for n, a in self.levels]}


def build_topology(spec: Any) -> TopologyTree:
    """Build a TopologyTree from ``{"levels": [{"name", "arity"}...]}``
    or a list of [name, arity] pairs.

    Rejects any other shape, empty trees and non-positive arities, naming
    the offending level.
    """
    if isinstance(spec, dict):
        raw = spec.get("levels")
        if not isinstance(raw, list):
            raise ValueError("topology spec must contain a 'levels' list")
        pairs = []
        for i, entry in enumerate(raw):
            if not isinstance(entry, dict) or "name" not in entry or "arity" not in entry:
                raise ValueError(f"topology level {i} must have 'name' and 'arity'")
            pairs.append((entry["name"], entry["arity"]))
    elif isinstance(spec, (list, tuple)):
        pairs = spec
        for i, entry in enumerate(pairs):
            if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
                raise ValueError(f"topology level {i} must be a [name, arity] "
                                 f"pair, got {entry!r}")
    else:
        raise ValueError(f"topology must be an object with a 'levels' list "
                         f"or a list of [name, arity] pairs, got "
                         f"{type(spec).__name__}")
    if not pairs:
        raise ValueError("topology must have at least one level")
    levels = []
    for i, (name, arity) in enumerate(pairs):
        if not isinstance(name, str) or not name:
            raise ValueError(f"topology level {i}: name must be a non-empty string")
        if not isinstance(arity, int) or isinstance(arity, bool) or arity < 1:
            raise ValueError(f"topology level {i} ({name!r}): arity must be a "
                             f"positive integer, got {arity!r}")
        levels.append((name, arity))
    return TopologyTree(tuple(levels))


# Messages between a fixed rank pair with a fixed tag arrive in send order,
# so each collective kind can reuse one tag without cross-talk.
_TAG_AGGREGATE = 11
_TAG_CASCADE = 12


def aggregate(ctx: RankContext, members: Sequence[int], data: bytes,
              ) -> list[bytes] | None:
    """Move every member's payload to the group leader.

    Collective over ``members``.  The leader returns the payloads in member
    rank order; everyone else returns None.  A missing member leaves the
    leader blocked and is named by the deadlock report.
    """
    members = sorted(members)
    leader = members[0]
    tag = _TAG_AGGREGATE
    if ctx.rank == leader:
        return [bytes(data) if m == ctx.rank else
                ctx.recv(source=m, tag=tag)[2] for m in members]
    ctx.send(leader, data, tag)
    return None


def cascade(ctx: RankContext, members: Sequence[int],
            payloads: Sequence[bytes] | None) -> bytes:
    """Inverse of aggregate: the leader hands payload i to member i.

    Collective over ``members``; only the leader supplies ``payloads``.
    """
    members = sorted(members)
    leader = members[0]
    tag = _TAG_CASCADE
    if ctx.rank == leader:
        if payloads is None or len(payloads) != len(members):
            got = "none" if payloads is None else len(payloads)
            raise ValueError(f"cascade needs {len(members)} payloads, got {got}")
        own = None
        for m, p in zip(members, payloads):
            if m == ctx.rank:
                own = bytes(p)
            else:
                ctx.send(m, p, tag)
        assert own is not None
        return own
    if payloads is not None:
        raise ValueError("only the group leader supplies cascade payloads")
    _, _, got = ctx.recv(source=leader, tag=tag)
    return got
