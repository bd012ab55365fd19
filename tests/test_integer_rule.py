"""One rule for every integer argument: _tables.check_int.

Each case is one parameter that check_int guards, as a call of that one
argument.  An integer given as an int, a numpy integer, a whole Fraction or
a whole Decimal must give the same answer of the same type, so no Fraction
or numpy scalar leaks into the arithmetic; a float (whole or not), a bool,
a string and None are refused, never truncated.
"""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from cubecount import _tables
from cubecount.closedform import a_from_count, binom_mod, chi3, l_from_count, vp_from_jacobsthal
from cubecount.cubicres import count_t_preimages, cubic_class, k_map, t_map
from cubecount.modarith import Prime, as_residue, checked_prime, is_prime, legendre
from cubecount.oracle import RationalMap, discriminant_cubic, jacobsthal_brute, np_cubic_roots
from cubecount.quadform import (
    CubicClass,
    EisRep,
    QuadRep,
    class_trace,
    class_value_targets,
    l_from_ab,
    represent_a3b,
    represent_l27m,
    root_class,
    two_class_is_b_mult3,
)
from cubecount.sweep import primes_between, run_sweep

REP7 = represent_a3b(7)

#: name -> (call of the guarded argument, an integer it accepts)
GUARDED = {
    "Prime-p": (Prime, 13),
    "checked_prime-p": (checked_prime, 13),
    "check_enumerable-p": (_tables.check_enumerable, 13),
    "is_prime-n": (is_prime, 13),
    "as_residue-a": (lambda v: as_residue(v, 7), 9),
    "legendre-a": (lambda v: legendre(v, 7), 3),
    "root_class-c": (lambda v: root_class(v, 7, REP7), 2),
    "root_class-p": (lambda v: root_class(2, v, REP7), 7),
    "cubic_class-p": (lambda v: cubic_class(2, v, REP7), 7),
    "class_value_targets-p": (lambda v: class_value_targets(v, REP7), 7),
    "l_from_ab-p": (lambda v: l_from_ab(v, REP7), 7),
    "two_class_is_b_mult3-p": (lambda v: two_class_is_b_mult3(v, REP7), 7),
    "represent_l27m-p": (represent_l27m, 13),
    "QuadRep-A": (lambda v: QuadRep(v, 2, 13).A, 1),
    "QuadRep-B": (lambda v: QuadRep(1, v, 13).B, 2),
    "QuadRep-p": (lambda v: QuadRep(1, 2, v).p, 13),
    "EisRep-L": (lambda v: EisRep(v, 1, 13).L, -5),
    "EisRep-M": (lambda v: EisRep(-5, v, 13).M, 1),
    "EisRep-p": (lambda v: EisRep(-5, 1, v).p, 13),
    "class_trace-a": (lambda v: class_trace(CubicClass.PLUS, v, 2), 1),
    "class_trace-b": (lambda v: class_trace(CubicClass.PLUS, 1, v), 2),
    "k_map-x": (lambda v: k_map(v, 13), 5),
    "t_map-x": (lambda v: t_map(v, 13), 5),
    "count_t_preimages-t": (lambda v: count_t_preimages(v, 13), 5),
    "jacobsthal_brute-m": (lambda v: jacobsthal_brute(v, 7), 1),
    "np_cubic_roots-a1": (lambda v: np_cubic_roots(v, 0, 0, 7), 1),
    "np_cubic_roots-a2": (lambda v: np_cubic_roots(0, v, 0, 7), 1),
    "np_cubic_roots-a3": (lambda v: np_cubic_roots(0, 0, v, 7), 1),
    "discriminant_cubic-a1": (lambda v: discriminant_cubic(v, 1, 1), 2),
    "discriminant_cubic-a2": (lambda v: discriminant_cubic(1, v, 1), 2),
    "discriminant_cubic-a3": (lambda v: discriminant_cubic(1, 1, v), 2),
    "RationalMap-numerator": (lambda v: RationalMap((v, 0, 0, 1), (0, 1)).numerator[0], 1),
    "RationalMap-denominator": (lambda v: RationalMap((1, 0, 0, 1), (0, v)).denominator[1], 1),
    "vp_from_jacobsthal-phi": (lambda v: vp_from_jacobsthal(v, 7), 3),
    "chi3-n": (chi3, 5),
    "binom_mod-n": (lambda v: binom_mod(v, 2, 7), 5),
    "binom_mod-k": (lambda v: binom_mod(5, v, 7), 2),
    "a_from_count-v2": (lambda v: a_from_count(7, v), 3),
    "l_from_count-v1": (lambda v: l_from_count(7, v), 4),
    "primes_between-lo": (lambda v: primes_between(v, 30), 5),
    "primes_between-hi": (lambda v: primes_between(5, v), 30),
    "run_sweep-max_p": (lambda v: run_sweep(v, ["jacobi"]).config["max_p"], 13),
    "run_sweep-jobs": (lambda v: run_sweep(13, ["jacobi"], jobs=v).config["jobs"], 1),
}


@pytest.mark.parametrize("name", GUARDED)
def test_every_integer_argument_follows_one_rule(name):
    call, n = GUARDED[name]
    want = call(n)
    for same in (np.int64(n), Fraction(n), Decimal(n)):
        got = call(same)
        assert got == want and type(got) is type(want), (same, got, want)
    refused = [2.5, float(n), True, "3"]
    if name != "run_sweep-jobs":  # jobs=None is the default, one job
        refused.append(None)
    for bad in refused:
        with pytest.raises(ValueError, match="must be an integer"):
            call(bad)
