"""Embedded transitive permutation groups of degrees 2 through 7.

The data file ships generator lists only (one record per line: degree,
t-number, generators in cycle notation).  Orders, cycle-type sets and
parity are recomputed here when a degree is first requested, so the
shipped data is checked rather than trusted:

* every order comes from a Schreier-Sims stabilizer chain built from the
  generators, and parity from the parities of the generators;
* a group of order n! is S_n, whose cycle types are all the partitions of
  n, and a group of order n!/2 is A_n, the only subgroup of index 2 in
  S_n, whose cycle types are the partitions with n - #parts even: these
  groups are never enumerated;
* every other group (order at most 168) is closed element by element, and
  the size of that closure must equal the chain order.

The two order-24 groups of degree 6 that are abstractly S4 are told apart
by parity: t-number 7 is the action with odd image, t-number 8 the one
inside the alternating group.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from math import factorial, lcm, prod

from .perms import (
    Perm,
    closure,
    compose,
    cycle_type,
    identity,
    inverse,
    is_even,
    is_transitive,
    parse_cycles,
)

NAMES = {
    (2, 1): "C2",
    (3, 1): "C3",
    (3, 2): "S3",
    (4, 1): "C4",
    (4, 2): "V4",
    (4, 3): "D4",
    (4, 4): "A4",
    (4, 5): "S4",
    (5, 1): "C5",
    (5, 2): "D5",
    (5, 3): "F20",
    (5, 4): "A5",
    (5, 5): "S5",
    (6, 1): "C6",
    (6, 2): "S3(6)",
    (6, 3): "D6",
    (6, 4): "A4(6)",
    (6, 5): "C3wrC2",
    (6, 6): "C2wrC3",
    (6, 7): "S4(6o)",
    (6, 8): "S4(6e)",
    (6, 9): "C3^2:V4",
    (6, 10): "C3^2:C4",
    (6, 11): "C2wrS3",
    (6, 12): "PSL(2,5)",
    (6, 13): "S3wrS2",
    (6, 14): "PGL(2,5)",
    (6, 15): "A6",
    (6, 16): "S6",
    (7, 1): "C7",
    (7, 2): "D7",
    (7, 3): "F21",
    (7, 4): "F42",
    (7, 5): "PSL(3,2)",
    (7, 6): "A7",
    (7, 7): "S7",
}


@dataclass(frozen=True)
class TransitiveGroupRecord:
    """One transitive group, with everything derivable recomputed on load."""

    degree: int
    t_number: int
    generators: tuple[Perm, ...]
    order: int
    cycle_types: frozenset[tuple[int, ...]]
    all_even: bool

    @property
    def t_label(self) -> str:
        return f"{self.degree}T{self.t_number}"

    @property
    def name(self) -> str:
        return NAMES[(self.degree, self.t_number)]

    @property
    def exponent(self) -> int:
        """The lcm of the element orders: of the parts of its cycle types."""
        return lcm(*{part for parts in self.cycle_types for part in parts})


@lru_cache(maxsize=None)
def _generators_by_degree() -> dict[int, list[tuple[int, tuple[Perm, ...]]]]:
    """The data file, parsed once: degree -> [(t-number, generators)]."""
    text = resources.files("padegalois").joinpath("data/transitive_groups.txt").read_text()
    out: dict[int, list[tuple[int, tuple[Perm, ...]]]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        degree, t_number = int(fields[0]), int(fields[1])
        gens = tuple(parse_cycles(tok, degree) for tok in fields[2:])
        out.setdefault(degree, []).append((t_number, gens))
    return out


def _chain_order(generators: list[Perm], n: int) -> int:
    """Order of the group the generators span, from a deterministic
    Schreier-Sims stabilizer chain (Sims 1970).

    Level i of the chain holds the strong generators that fix
    ``base[:i]`` and, for each point q of the orbit of ``base[i]`` under
    them, an element taking q back to ``base[i]``.  Levels are completed
    from the deepest up: each Schreier generator of a level is sifted
    through the levels below it, once, and one that does not sift to the
    identity becomes a strong generator at the level where its sift
    stopped, and the work goes back to that level.  The order is the
    product of the orbit lengths.
    """
    e = identity(n)
    strong = [s for s in generators if s != e]
    base: list[int] = []
    back: list[dict[int, Perm]] = []
    tested: set[tuple[int, int, Perm]] = set()

    def new_level(s: Perm) -> None:
        base.append(next(x for x in range(n) if s[x] != x))
        back.append({base[-1]: e})

    def residue(i: int) -> tuple[Perm, int] | None:
        to_base = back[i]
        gens = [s for s in strong if all(s[b] == b for b in base[:i])]
        frontier = list(to_base)
        while frontier:
            p = frontier.pop()
            for s in gens:
                if s[p] not in to_base:
                    to_base[s[p]] = compose(to_base[p], inverse(s))
                    frontier.append(s[p])
        for p, w in to_base.items():
            for s in gens:
                if (i, p, s) in tested:
                    continue
                tested.add((i, p, s))
                h = compose(to_base[s[p]], compose(s, inverse(w)))
                j = i + 1
                while h != e and j < len(base) and h[base[j]] in back[j]:
                    h = compose(back[j][h[base[j]]], h)
                    j += 1
                if h != e:
                    return h, j
        return None

    for s in strong:
        if all(s[b] == b for b in base):
            new_level(s)
    i = len(base) - 1
    while i >= 0:
        found = residue(i)
        if found is None:
            i -= 1
            continue
        h, i = found
        if i == len(base):
            new_level(h)
        strong.append(h)
    return prod(len(to_base) for to_base in back)


def _partitions(n: int, largest: int) -> list[tuple[int, ...]]:
    """The partitions of n into parts of at most ``largest``, descending."""
    if n == 0:
        return [()]
    return [
        (first,) + rest
        for first in range(min(n, largest), 0, -1)
        for rest in _partitions(n - first, first)
    ]


@lru_cache(maxsize=None)
def transitive_groups(degree: int) -> tuple[TransitiveGroupRecord, ...]:
    """All transitive groups of the degree, expanded and ascending in t-number."""
    if not 2 <= degree <= 7:
        raise ValueError(f"no embedded group data for degree {degree}")
    records = []
    for t, gens in _generators_by_degree()[degree]:
        if not is_transitive(list(gens), degree):
            raise AssertionError(f"{degree}T{t}: generators are not transitive")
        order = _chain_order(list(gens), degree)
        if order * 2 >= factorial(degree):
            # S_n or A_n: every partition, or the even ones
            cycle_types = frozenset(
                c
                for c in _partitions(degree, degree)
                if order == factorial(degree) or (degree - len(c)) % 2 == 0
            )
        else:
            elements = closure(list(gens), degree)
            if len(elements) != order:
                raise AssertionError(f"{degree}T{t}: closure disagrees with chain")
            cycle_types = frozenset(cycle_type(e) for e in elements)
        records.append(
            TransitiveGroupRecord(
                degree=degree,
                t_number=t,
                generators=gens,
                order=order,
                cycle_types=cycle_types,
                all_even=all(is_even(g) for g in gens),
            )
        )
    records.sort(key=lambda r: r.t_number)
    return tuple(records)
