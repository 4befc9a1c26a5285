"""Small prime-number helpers: deterministic tests and ascending streams.

Below 2^16, where the Frobenius sampler and the factoring prime search
walk, ``is_prime`` and ``next_prime`` read a sieve of Eratosthenes built
once, at import.  Above it, the Miller-Rabin test below is deterministic
for every integer under 3317044064679887385961981 (fixed base set),
which covers everything this package ever feeds it; inputs beyond that
raise rather than guess.
"""

from __future__ import annotations

from math import isqrt
from typing import Iterator

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3317044064679887385961981
_SMALL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_SIEVE_LIMIT = 1 << 16


def _sieve(limit: int) -> bytearray:
    """Byte i is 1 when i < limit is prime, else 0."""
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for i in range(2, isqrt(limit - 1) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, limit, i)))
    return sieve


_SIEVE = _sieve(_SIEVE_LIMIT)


def is_prime(n: int) -> bool:
    if n < _SIEVE_LIMIT:
        return n >= 2 and _SIEVE[n] == 1
    return _miller_rabin(n)


def _miller_rabin(n: int) -> bool:
    """Trial division by small primes, then Miller-Rabin on a fixed base
    set: deterministic for every n < 3317044064679887385961981."""
    if n < 2:
        return False
    for p in _SMALL:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n >= _MR_LIMIT:
        raise ValueError(f"primality test out of deterministic range: {n}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    k = n + 1
    if k <= 2:
        return 2
    if k < _SIEVE_LIMIT:
        found = _SIEVE.find(1, k)
        if found != -1:
            return found
        k = _SIEVE_LIMIT
    if k % 2 == 0:
        k += 1
    while not is_prime(k):
        k += 2
    return k


def primes_from(start: int) -> Iterator[int]:
    """Ascending primes >= start, unbounded."""
    p = start - 1
    while True:
        p = next_prime(p)
        yield p
