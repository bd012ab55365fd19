"""Golden SHA-256 digests of the enumeration oracles' outputs.

The counts are mathematical facts about fixed inputs, so a digest changes
only when the inputs below change.  Every array is hashed as little-endian
int64, so a digest does not depend on the dtype a table is stored in.  At
p = 1,000,003, (p - 1)^2 > 2^32: a product of two residues taken in 32
bits would wrap there and change a digest.
"""

import hashlib
import random

import numpy as np

from cubecount import _tables
from cubecount.cubicres import t_preimage_counts
from cubecount.oracle import (
    Domain,
    RationalMap,
    family_counts,
    jacobsthal_all,
    jacobsthal_brute,
    np_cubic_roots,
    vp_brute,
)

#: Primes at which every oracle that finishes in milliseconds there runs.
PRIMES = (13, 1009, 3001, 32_771, 1_000_003)

#: family_counts is O(p^2) and jacobsthal_all O(p log p) with a large
#: constant: they stop at these bounds.
FAMILY_MAX_P, JACOBSTHAL_ALL_MAX_P = 3001, 32_771


def seeded_maps(p: int) -> list[tuple[RationalMap, Domain]]:
    """The two paper families and a cubic, with coefficients drawn from a
    generator seeded by p."""
    rng = random.Random(p)
    a = [rng.randrange(1, p) for _ in range(6)]
    return [
        (RationalMap.x2_plus_a_over_x(a[0]), Domain.NONZERO),
        (RationalMap.x2_plus_a_over_x(a[1]), Domain.ALL),
        (RationalMap.x_plus_a_over_2x2(a[2]), Domain.NONZERO),
        (RationalMap.cubic(a[3], a[4], a[5]), Domain.ALL),
    ]


def digest(arrays) -> str:
    """SHA-256 of the arrays, each taken as little-endian int64, in order."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<i8").tobytes())
    return h.hexdigest()


def oracle_digests(p: int) -> dict[str, str]:
    """One digest per oracle at p, keyed "<oracle> <p>"."""
    rng = random.Random(-p)
    cubics = [(0, -1, 0), (0, 0, 1)] + [tuple(rng.randrange(p) for _ in range(3)) for _ in range(4)]
    counts, bitmaps = [], []
    for f, domain in seeded_maps(p):
        res = vp_brute(f, p, domain, want_bitmap=True)
        counts.append(res.v)
        bitmaps.append(res.attained)
    out = {
        "vp_brute": digest([counts] + bitmaps),
        "np_cubic_roots": digest([[np_cubic_roots(*c, p) for c in cubics]]),
        "jacobsthal_brute": digest([[jacobsthal_brute(m, p) for m in (1, 2, 5, p - 1)]]),
        "t_preimage_counts": digest([t_preimage_counts(p)]),
        "inverses": digest([_tables.inverses(p)]),
    }
    if p <= FAMILY_MAX_P:
        out["family_counts"] = digest([family_counts(p)])
    if p <= JACOBSTHAL_ALL_MAX_P:
        out["jacobsthal_all"] = digest([jacobsthal_all(p)])
    return {f"{name} {p}": d for name, d in out.items()}


GOLDEN = {
    "vp_brute 13": "8193d0c2eb09062e14eedc29a39d1c89d1e1e8309e553188fe0b28b7a1278247",
    "np_cubic_roots 13": "e633b45d2bf23a2633182a1e3b267eea84de05a8334f7f4c298532a4a7d7703b",
    "jacobsthal_brute 13": "b91cb37b27833a926440c73f5d0c575c67b32a089ac73737f9e9cf24f704386c",
    "t_preimage_counts 13": "bd8c0764ef5fca97f3afaad873e072ff3fd7f36fd23db1ee2b9a02e34f801d14",
    "inverses 13": "710898d29f5c89059eec7140e38a94faf8a03f7a0731bf82faae881e7b69843e",
    "family_counts 13": "5b94841eeffd8320ee64921deebcb98100f8ed874b2044efae2011c250a4c688",
    "jacobsthal_all 13": "625c7f391a0aff6a21d61258d4ab549374c89f471999eded99807039403e3b83",
    "vp_brute 1009": "5cb9623f43babec27906ac857c379162633dcea9361dcc2f7f8695310722cc6b",
    "np_cubic_roots 1009": "8181c57a1fec9a0f87f2b7b702ea39b31e729245c735c4af775e506f9d3bfc56",
    "jacobsthal_brute 1009": "263a75f9accfa36a191ecc6321f95cde8b35cf892181e42e87702f06d5b7aa29",
    "t_preimage_counts 1009": "759ac2bf384b1d819581ccf0a7d3bc5bbf9f31c7c05d679486f70acac7f217ca",
    "inverses 1009": "8b7c67849556cca830ad24b65b9d1831a0db4ebe3e35ef70122ae4b36049964e",
    "family_counts 1009": "56b86072b5fb2603e705e2dcdf587ad9e9c7ce925dd62f66fef089f69ec6927b",
    "jacobsthal_all 1009": "839cd364bf6d9390554b547763a9ed6e09c3bb28723c996cb6a8ab71b37d2019",
    "vp_brute 3001": "2a757a7ec85f6a65495401dd1c61b5453e770db104fa436116ea84a2d0311e95",
    "np_cubic_roots 3001": "23f38bf37ef057661d2de818bc11fdee8a4f47f284c793606135a1ba7fb99ae0",
    "jacobsthal_brute 3001": "87356375c7dc2e8983f2a0ffed1898b65d87734b004a8ed034f4f389d96ce7f1",
    "t_preimage_counts 3001": "470dff3637db28aee34f66e42cf2bd79e9f68d924fc344b36bdc49db605ef480",
    "inverses 3001": "00e54b77578f51c2cd4ff2fbe4525f6d940f574e34ecff55d2cf042b5e90cc03",
    "family_counts 3001": "6904471602cc7095a1131257eccc78e0026d92755e982bb2a46b6d65fe47fb3f",
    "jacobsthal_all 3001": "634191bd1150a71e598c06a3e0859cd6856802c99969e21ae7fb549259d3608c",
    "vp_brute 32771": "5cdc52298b69c5098f7b96846f61cccd8a8c9cf21e262b3c871885828d6f7a7e",
    "np_cubic_roots 32771": "5ae5c4f13b64c6d01db3c44ef617bfbaa950d28cd3588143c57069c796d296a4",
    "jacobsthal_brute 32771": "af9613760f72635fbdb44a5a0a63c39f12af30f950a6ee5c971be188e89c4051",
    "t_preimage_counts 32771": "4da563e89ebaa4de4571762f55d4f9e981ce92171dc69ad284a876c3c2707b00",
    "inverses 32771": "b13f459052467ed9b5676ab31920982707674fa043dab4001a7edea27dec1d6f",
    "jacobsthal_all 32771": "9bee1cb1fdfed93027417d30c3c99c6aa3294ef7cca6ff582361a7adee5dffad",
    "vp_brute 1000003": "c0013740e7a93eacf822a7a1b7ad4c75774ec2a0d4b06c9d49d43d9e851827e1",
    "np_cubic_roots 1000003": "14594139164d738943af5b5334bb610a6aa0f1f839003e61f82564c58d354232",
    "jacobsthal_brute 1000003": "d322915ae514fccc6b8ceefc83be48e1af5601e4d058fe4a42d628b6177e24be",
    "t_preimage_counts 1000003": "0912a73a526a24fbafe5a464a652612bc6b87c9a7f9301b43c84a7c37b01c2e8",
    "inverses 1000003": "e82fa04130672eb0e0227cad164b9fe34089434ed7b06e440ac9226be46d0de5",
}


def test_oracle_outputs_match_their_golden_digests():
    got = {}
    for p in PRIMES:
        got.update(oracle_digests(p))
    assert got == GOLDEN
