"""Number-theory helpers shared by the parser, the registry bounds, the
enumerator and the invariants: primality and prime factorization by trial
division, which is ample for group orders under the table limit."""

from __future__ import annotations

from .errors import OutOfRange

FACTOR_LIMIT = 10**12  # trial division factors a number up to this in well under a second


def is_prime(n: int) -> bool:
    return n >= 2 and factorization(n) == {n: 1}


def factorization(n: int) -> dict[int, int]:
    """Prime -> exponent for 1 <= n <= FACTOR_LIMIT, primes in increasing
    order; a larger n is refused rather than left to run for hours."""
    if n > FACTOR_LIMIT:
        raise OutOfRange(f"{n} is over {FACTOR_LIMIT}, the most trial division factors")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out
