"""The per-prime memo for O(p) tables, and the tables shared by the oracles.

Products of two residues must stay exact in int64, which caps the
enumerable modulus at isqrt(2**63), and the tables hold only mod a prime;
every enumerating entry point checks both with check_enumerable before it
allocates anything.  per_prime is the one cache policy for the O(p)
tables: p checked, table built, marked read-only, and kept for the last
TABLE_PRIMES primes.  numpy is imported
on first use, inside the table builders, so importing the package costs
no numpy import until a table is built.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

from .errors import CompositeModulus

if TYPE_CHECKING:
    import numpy as np

#: Largest modulus for which (p-1)**2 still fits in int64.
MAX_ENUM_PRIME = 3_037_000_499

#: How many primes' worth of each table is kept.  Every caller finishes one
#: prime before it starts the next, so this only has to cover a caller that
#: goes back to a recent prime.
TABLE_PRIMES = 8


def check_enumerable(p: int) -> None:
    """ValueError above MAX_ENUM_PRIME; CompositeModulus unless p is prime,
    since inv_table (Fermat's x^(p-2)) and qr_table are right only mod a prime."""
    if p > MAX_ENUM_PRIME:
        raise ValueError(
            f"p = {p} is too large for array enumeration (limit {MAX_ENUM_PRIME})"
        )
    if not _is_prime_enumerable(p):
        raise CompositeModulus(f"{p} is not prime")


def _is_prime_enumerable(n: int) -> bool:
    """Miller-Rabin to the bases 2, 3, 5 and 7: exact below 3,215,031,751,
    so for every n <= MAX_ENUM_PRIME.  Written here, not taken from
    modarith, so that the oracles import nothing of the closed-form layers."""
    if n < 11:
        return n in (2, 3, 5, 7)
    s = ((n - 1) & (1 - n)).bit_length() - 1  # 2^s exactly divides n - 1
    for a in (2, 3, 5, 7):
        x = pow(a, (n - 1) >> s, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def per_prime(build):
    """Memoise an O(p) table builder: build(p) -> read-only ndarray.

    The returned function checks p with check_enumerable, builds the table,
    marks it read-only, and keeps the tables of the last TABLE_PRIMES primes.
    It is the cache wrapper itself, with cache_info, cache_clear and
    cache_parameters.
    """

    @functools.wraps(build)
    def table(p: int) -> np.ndarray:
        check_enumerable(p)
        out = build(p)
        out.flags.writeable = False
        return out

    return functools.lru_cache(maxsize=TABLE_PRIMES)(table)


@per_prime
def inv_table(p: int) -> np.ndarray:
    """inv_table(p)[x] = x^(-1) mod p for x in [1, p); slot 0 holds 0.

    Computed as x^(p-2) by a vectorised square-and-multiply ladder,
    O(p log p) element operations.
    """
    import numpy as np

    acc = np.ones(p, dtype=np.int64)
    base = np.arange(p, dtype=np.int64)
    e = p - 2
    while e:
        if e & 1:
            acc = acc * base % p
        base = base * base % p
        e >>= 1
    return acc


@per_prime
def qr_table(p: int) -> np.ndarray:
    """qr_table(p)[v] = Legendre symbol (v/p) as -1 / 0 / +1.

    Built from the definition: v is marked +1 exactly when v is a nonzero
    square mod p, which keeps this table independent of the Euler-criterion
    scalar path.
    """
    import numpy as np

    sq = np.arange(1, p, dtype=np.int64)
    tab = np.full(p, -1, dtype=np.int64)
    tab[0] = 0
    tab[sq * sq % p] = 1
    return tab


@per_prime
def cubes_nonzero(p: int) -> np.ndarray:
    """y^3 mod p over y in [1, p)."""
    import numpy as np

    y = np.arange(1, p, dtype=np.int64)
    return y * y % p * y % p
