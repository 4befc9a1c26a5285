"""Small permutation toolkit backing the group-identification tier.

A permutation on n points is a tuple of length n holding 0-based images:
``p[i]`` is where point i goes.  Cycle notation in text form is 1-based,
e.g. ``(1,2,3)(4,5)``; the identity prints as ``()``.
"""

from __future__ import annotations

Perm = tuple[int, ...]


def identity(n: int) -> Perm:
    return tuple(range(n))


def compose(a: Perm, b: Perm) -> Perm:
    """a after b: the result maps i to a[b[i]]."""
    return tuple([a[x] for x in b])


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def cycles_of(p: Perm) -> list[tuple[int, ...]]:
    """Disjoint cycles (including fixed points), each rotated to start at
    its smallest element, sorted by that element."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        x = p[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = p[x]
        out.append(tuple(cyc))
    return out


def cycle_type(p: Perm) -> tuple[int, ...]:
    """Cycle lengths in descending order, fixed points included."""
    return tuple(sorted((len(c) for c in cycles_of(p)), reverse=True))


def is_even(p: Perm) -> bool:
    """True when p is an even permutation."""
    return sum(len(c) - 1 for c in cycles_of(p)) % 2 == 0


def format_cycles(p: Perm) -> str:
    parts = [c for c in cycles_of(p) if len(c) > 1]
    if not parts:
        return "()"
    return "".join("(" + ",".join(str(x + 1) for x in c) + ")" for c in parts)


def parse_cycles(text: str, n: int) -> Perm:
    """Parse 1-based cycle notation into a permutation on n points."""
    text = text.strip()
    if text in ("()", ""):
        return identity(n)
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"bad cycle notation: {text!r}")
    images = list(range(n))
    for chunk in text[1:-1].split(")("):
        entries = [int(tok) for tok in chunk.split(",")]
        if len(entries) != len(set(entries)):
            raise ValueError(f"repeated point in cycle: {text!r}")
        for v in entries:
            if not 1 <= v <= n:
                raise ValueError(f"point {v} outside 1..{n}: {text!r}")
        for a, b in zip(entries, entries[1:] + entries[:1]):
            if images[a - 1] != a - 1:
                raise ValueError(f"point {a} in two cycles: {text!r}")
            images[a - 1] = b - 1
    return tuple(images)


def orbit(generators: list[Perm], start: int) -> frozenset[int]:
    reached = {start}
    frontier = [start]
    while frontier:
        x = frontier.pop()
        for g in generators:
            y = g[x]
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    return frozenset(reached)


def is_transitive(generators: list[Perm], n: int) -> bool:
    return n == 0 or len(orbit(generators, 0)) == n


def closure(generators: list[Perm], n: int) -> frozenset[Perm]:
    """All products of the generators: the group they generate."""
    e = identity(n)
    elements = {e}
    frontier = [e]
    while frontier:
        p = frontier.pop()
        for g in generators:
            q = compose(g, p)
            if q not in elements:
                elements.add(q)
                frontier.append(q)
    return frozenset(elements)
