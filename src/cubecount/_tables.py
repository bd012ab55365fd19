"""Cached numpy lookup tables shared by the enumeration kernels.

All tables are int64 and marked read-only.  Products of two residues must
stay exact in int64, which caps the enumerable modulus at isqrt(2**63).
numpy is imported on first use, inside the table builders, so importing
the package costs no numpy import until a table is built.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

#: Largest modulus for which (p-1)**2 still fits in int64.
MAX_ENUM_PRIME = 3_037_000_499


def check_enumerable(p: int) -> None:
    if p > MAX_ENUM_PRIME:
        raise ValueError(
            f"p = {p} is too large for array enumeration (limit {MAX_ENUM_PRIME})"
        )


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=8)
def xs_all(p: int) -> np.ndarray:
    import numpy as np

    check_enumerable(p)
    return _frozen(np.arange(p, dtype=np.int64))


@lru_cache(maxsize=8)
def xs_nonzero(p: int) -> np.ndarray:
    import numpy as np

    check_enumerable(p)
    return _frozen(np.arange(1, p, dtype=np.int64))


@lru_cache(maxsize=8)
def inv_table(p: int) -> np.ndarray:
    """inv_table(p)[x] = x^(-1) mod p for x in [1, p); slot 0 holds 0.

    Computed as x^(p-2) by a vectorised square-and-multiply ladder,
    O(p log p) element operations.
    """
    import numpy as np

    acc = np.ones(p, dtype=np.int64)
    base = xs_all(p).copy()
    e = p - 2
    while e:
        if e & 1:
            acc = acc * base % p
        base = base * base % p
        e >>= 1
    return _frozen(acc)


@lru_cache(maxsize=8)
def qr_table(p: int) -> np.ndarray:
    """qr_table(p)[v] = Legendre symbol (v/p) as -1 / 0 / +1.

    Built from the definition: v is marked +1 exactly when v is a nonzero
    square mod p, which keeps this table independent of the Euler-criterion
    scalar path.
    """
    import numpy as np

    sq = xs_nonzero(p)
    tab = np.full(p, -1, dtype=np.int64)
    tab[0] = 0
    tab[sq * sq % p] = 1
    return _frozen(tab)


@lru_cache(maxsize=8)
def cubes_nonzero(p: int) -> np.ndarray:
    """y^3 mod p over y in [1, p)."""
    y = xs_nonzero(p)
    return _frozen(y * y % p * y % p)
