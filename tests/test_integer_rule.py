"""One rule for every integer argument: _tables.check_int.

Each case is one parameter that check_int guards, as a call of that one
argument.  An integer given as an int, a numpy integer, a whole Fraction or
a whole Decimal must give the same answer of the same type, so no Fraction
or numpy scalar leaks into the arithmetic; a float (whole or not), a bool,
a string and None are refused, never truncated.

Every parameter of every public callable is either such a case or has an
entry in EXEMPT that states the rule it follows instead, and a junk probe
gives each one values of every kind: it must refuse them with a ValueError
or a CubecountError, or answer as its rule reads them.
"""

import inspect
from decimal import Decimal
from enum import Enum
from fractions import Fraction

import numpy as np
import pytest

import cubecount
from cubecount import _tables, modarith
from cubecount.closedform import (
    a_from_count,
    binom_mod,
    chi3,
    jacobi_check,
    jacobsthal_closed,
    l_from_count,
    von_sterneck_value,
    vp_2a,
    vp_closed,
    vp_from_jacobsthal,
    vp_half_x2,
)
from cubecount.cubicres import (
    count_t_preimages,
    cubic_class,
    h_set,
    in_c0,
    is_cubic_residue,
    k_map,
    t_map,
    t_preimage_counts,
)
from cubecount.errors import CubecountError
from cubecount.modarith import Prime, checked_prime, is_prime, legendre
from cubecount.oracle import (
    Domain,
    RationalMap,
    discriminant_cubic,
    family_counts,
    jacobsthal_all,
    jacobsthal_brute,
    np_cubic_roots,
    vp_brute,
)
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
REP13 = represent_a3b(13)

#: name -> (call of the guarded argument, an integer it accepts)
GUARDED = {
    "Prime-p": (Prime, 13),
    "checked_prime-p": (checked_prime, 13),
    "check_enumerable-p": (_tables.check_enumerable, 13),
    "is_prime-n": (is_prime, 13),
    # in_c0's k is one argument modarith._as_residue reduces
    "as_residue-a": (lambda v: in_c0(v, 13), 9),
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
    "a_from_count-p": (lambda v: a_from_count(v, 3), 7),
    "l_from_count-p": (lambda v: l_from_count(v, 4), 7),
    "binom_mod-p": (lambda v: binom_mod(5, 2, v), 7),
    "vp_from_jacobsthal-p": (lambda v: vp_from_jacobsthal(3, v), 7),
    "jacobi_check-p": (jacobi_check, 13),
    "von_sterneck_value-p": (von_sterneck_value, 13),
    "vp_closed-p": (lambda v: vp_closed(5, v), 13),
    "vp_2a-p": (lambda v: vp_2a(5, v), 13),
    "vp_half_x2-p": (lambda v: vp_half_x2(5, v), 13),
    "jacobsthal_closed-p": (lambda v: jacobsthal_closed(5, v, REP13), 13),
    "is_cubic_residue-p": (lambda v: is_cubic_residue(5, v), 13),
    "k_map-p": (lambda v: k_map(5, v), 13),
    "t_map-p": (lambda v: t_map(5, v), 13),
    "legendre-p": (lambda v: legendre(3, v), 7),
    "represent_a3b-p": (represent_a3b, 13),
    "in_c0-p": (lambda v: in_c0(9, v), 13),
    "count_t_preimages-p": (lambda v: count_t_preimages(5, v), 13),
    "h_set-p": (lambda v: h_set(v).tolist(), 13),
    "t_preimage_counts-p": (lambda v: t_preimage_counts(v).tolist(), 13),
    "family_counts-p": (lambda v: family_counts(v).tolist(), 13),
    "jacobsthal_all-p": (lambda v: jacobsthal_all(v).tolist(), 13),
    "jacobsthal_brute-p": (lambda v: jacobsthal_brute(1, v), 7),
    "np_cubic_roots-p": (lambda v: np_cubic_roots(1, 0, 0, v), 7),
    "vp_brute-p": (lambda v: vp_brute(RationalMap.cubic(0, 0, 0), v, Domain.ALL).v, 7),
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


class _Refused:
    def __repr__(self):
        return "REFUSED"


#: a ValueError or a CubecountError
REFUSED = _Refused()

#: the modulus of every probe call of a_residue
P_PROBE = 13


# The rules of EXEMPT.  A rule the probe applies is a function: it reads a
# junk value as the argument the value stands for, or as REFUSED.  A rule
# the probe does not apply is its text.


def a_residue(v):
    """An integer or a Fraction, reduced mod p by modarith._as_residue."""
    if type(v) is int:
        return v % P_PROBE
    if isinstance(v, Fraction):
        return v.numerator * pow(v.denominator, -1, P_PROBE) % P_PROBE
    return REFUSED


def coefficients(v):
    """A tuple or list of integer coefficients; GUARDED calls one of them."""
    return tuple(v) if isinstance(v, (tuple, list)) else REFUSED


def no_junk(v):
    """A value of one package type (a QuadRep of p, a CubicClass, a
    RationalMap, a Domain) or a list of check names: no junk value is one."""
    return REFUSED


def an_integer(v):
    """The rule of GUARDED: an integer is answered, anything else refused."""
    return v if type(v) is int else REFUSED


def a_modulus(v):
    """The rule of GUARDED's moduli: no junk value is a prime in (3, 2**62)."""
    return REFUSED


RECORD = "a field of a result the package builds; stored as given"

#: each public parameter that is not a plain integer, by the rule it follows
EXEMPT = {
    "checked_prime-_prime": "the class Prime, bound at import; no caller passes it",
    "vp_brute-want_bitmap": "a bool, read for its truth value",
    "vp_closed-a": a_residue,
    "vp_2a-a": a_residue,
    "vp_half_x2-a": a_residue,
    "jacobsthal_closed-m": a_residue,
    "cubic_class-a": a_residue,
    "is_cubic_residue-a": a_residue,
    "in_c0-k": a_residue,
    "RationalMap-numerator": coefficients,
    "RationalMap-denominator": coefficients,
    "class_trace-c": no_junk,
    "class_value_targets-rep": no_junk,
    "cubic_class-rep": no_junk,
    "jacobsthal_closed-rep": no_junk,
    "l_from_ab-rep": no_junk,
    "root_class-rep": no_junk,
    "two_class_is_b_mult3-rep": no_junk,
    "vp_brute-f": no_junk,
    "vp_brute-domain": no_junk,
    "run_sweep-checks": no_junk,
    **{
        f"{record}-{field}": RECORD
        for record, fields in {
            "CountResult": ("v", "attained"),
            "SweepReport": ("prime_range", "primes_checked", "pairs_checked", "mismatches", "elapsed", "config"),
            "VpBreakdown": ("v", "path_case", "p", "a", "A", "B"),
        }.items()
        for field in fields
    },
}

#: the probe's call of each parameter EXEMPT reads, and of run_sweep's jobs
#: at max_p = 5, one prime, so that no junk value starts a process
PROBE_CALLS = {
    "vp_closed-a": lambda v: vp_closed(v, P_PROBE),
    "vp_2a-a": lambda v: vp_2a(v, P_PROBE),
    "vp_half_x2-a": lambda v: vp_half_x2(v, P_PROBE),
    "jacobsthal_closed-m": lambda v: jacobsthal_closed(v, P_PROBE, REP13),
    "cubic_class-a": lambda v: cubic_class(v, P_PROBE, REP13),
    "is_cubic_residue-a": lambda v: is_cubic_residue(v, P_PROBE),
    "in_c0-k": lambda v: in_c0(v, P_PROBE),
    "RationalMap-numerator": lambda v: RationalMap(v).numerator,
    "RationalMap-denominator": lambda v: RationalMap((1,), v).denominator,
    "class_trace-c": lambda v: class_trace(v, 1, 2),
    "class_value_targets-rep": lambda v: class_value_targets(13, v),
    "cubic_class-rep": lambda v: cubic_class(2, 13, v),
    "jacobsthal_closed-rep": lambda v: jacobsthal_closed(2, 13, v),
    "l_from_ab-rep": lambda v: l_from_ab(13, v),
    "root_class-rep": lambda v: root_class(3, 13, v),
    "two_class_is_b_mult3-rep": lambda v: two_class_is_b_mult3(13, v),
    "vp_brute-f": lambda v: vp_brute(v, 7, Domain.ALL).v,
    "vp_brute-domain": lambda v: vp_brute(RationalMap.cubic(0, 0, 0), 7, v).v,
    "run_sweep-checks": lambda v: run_sweep(5, v).pairs_checked,
    "run_sweep-jobs": lambda v: run_sweep(5, ["jacobi"], jobs=v).config["jobs"],
}

#: floats, NaN, a bool, a string, bytes, None, integers out of every range,
#: a Fraction and a Decimal that are not whole, a numpy float, containers, 1j
JUNK = (2.5, float("nan"), np.float64(3.0), True, "3", b"3", None, 0, -5, 2**70,
        Fraction(5, 2), Decimal("2.5"), [3], (3,), 1j)


def public_parameters() -> dict:
    """'name-parameter' -> its inspect.Parameter, for every parameter of
    every callable in cubecount.__all__ but the Enum and exception classes."""
    params = {}
    for name in cubecount.__all__:
        obj = getattr(cubecount, name)
        if not callable(obj) or isinstance(obj, type) and issubclass(obj, (Enum, BaseException)):
            continue
        for param in inspect.signature(obj).parameters.values():
            params[f"{name}-{param.name}"] = param
    return params


def _unlisted(public: dict) -> list:
    return [key for key in public if key not in GUARDED and key not in EXEMPT]


def test_every_public_parameter_has_a_rule():
    public = public_parameters()
    assert _unlisted(public) == []
    assert [key for key in EXEMPT if key not in public] == []
    read = [key for key, rule in EXEMPT.items() if callable(rule)]
    assert sorted(key for key in read if key not in PROBE_CALLS) == []


def test_the_walk_finds_a_planted_public_function(monkeypatch):
    def planted(x, p):
        return x % p

    monkeypatch.setattr(modarith, "__all__", [*modarith.__all__, "planted"])
    monkeypatch.setattr(cubecount, "planted", planted, raising=False)
    assert _unlisted(public_parameters()) == ["planted-x", "planted-p"]


def _outcome(call, v):
    """call(v); REFUSED for a ValueError or a CubecountError; any other
    exception as itself, which equals no outcome but itself."""
    try:
        return call(v)
    except (ValueError, CubecountError):
        return REFUSED
    except Exception as exc:  # a foreign exception: the probe reports it
        return exc


def _probe(call, rule, default=inspect.Parameter.empty) -> list:
    """(junk, outcome, the outcome rule reads it as) for each junk value
    that call does not answer as rule reads it; None reads as itself for a
    parameter whose default is None."""
    misses = []
    for v in JUNK:
        got = _outcome(call, v)
        reading = v if v is None and default is None else rule(v)
        want = REFUSED if reading is REFUSED else _outcome(call, reading)
        if isinstance(got, Exception) or isinstance(want, Exception) or not got == want:
            misses.append((v, got, want))
    return misses


def test_every_public_parameter_refuses_junk_or_reads_it_by_its_rule():
    misses = {}
    public = public_parameters()
    for key in set(public).difference(_unlisted(public)):  # the walk reports the rest
        rule = EXEMPT.get(key)
        if isinstance(rule, str):
            continue
        if rule is None:
            rule = a_modulus if key.endswith("-p") else an_integer
        call = PROBE_CALLS.get(key) or GUARDED[key][0]
        if found := _probe(call, rule, public[key].default):
            misses[key] = found
    assert misses == {}


def test_the_probe_finds_an_unchecked_modulus():
    def inverse(a, p):  # a modulus that nothing checks
        return pow(a, -1, p)

    misses = _probe(lambda v: inverse(2, v), a_modulus)
    answered = {repr(v): got for v, got, _ in misses if not isinstance(got, Exception)}
    assert answered == {"True": 0, "None": 0.5, "-5": -2}
    assert TypeError in {type(got) for _, got, _ in misses}
