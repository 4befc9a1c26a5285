"""Prime helpers: the small-prime sieve against Miller-Rabin."""

from padegalois import primes
from padegalois.primes import is_prime, next_prime

from .oracles import primes_in_range

# past the sieve, so the switch to Miller-Rabin is crossed too
LIMIT = (1 << 16) + 64


def test_sieve_matches_miller_rabin():
    for n in range(-2, LIMIT):
        assert is_prime(n) == primes._miller_rabin(n), n


def test_next_prime_matches_miller_rabin_scan():
    expected = LIMIT
    while not primes._miller_rabin(expected):
        expected += 1
    for n in range(LIMIT - 1, -3, -1):
        if primes._miller_rabin(n + 1):
            expected = n + 1
        assert next_prime(n) == expected, n


def test_counts_and_edges():
    assert len(primes_in_range(0, 1 << 16)) == 6542
    assert next_prime((1 << 16) - 16) == 65521
    assert next_prime(65521) == 65537
    assert not is_prime(1 << 16) and is_prime(65537)
