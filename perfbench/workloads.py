"""The benchmark's workloads: item lists, set-up, and canonical output.

Each workload is a list of items.  An item is a key and a call into
cyclolab's public API that returns the item's canonical output: the
strings the CLI prints for that result, rendered with the same
``BigFloat.decimal`` / ``significant`` calls.  The seed only orders the
items; every input, the sampled Gaussian points included, comes from a
fixed pool so that one checked-in reference covers every seed.

Calls go through module attributes (``roots.window_counts``), never
through names bound here, so a tracer installed in the cyclolab modules
sees them.

Import this module only after ``src`` is on ``sys.path``.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction
from math import gcd

from cyclolab import arith, bounds, nearmiss, ordering, polycore, rationalcheck, roots

DIGITS = 15
WINDOW_M = 72  # window_counts for every pair m < n <= WINDOW_M
REAL_M = 36  # real_coincidence_roots for every pair m < n <= REAL_M
NEAR_MISS_DEGREES = (128, 200)  # near_miss_root on triples p <= 3 with degree in (lo, hi]
COMPLEX_M = 18  # complex_roots for every coprime pair m < n <= COMPLEX_M
BOUNDS_N = 1000  # check_real_bounds for n <= BOUNDS_N at every x in BOUNDS_XS
BOUNDS_XS = (Fraction(2), Fraction(5, 2), Fraction(3), Fraction(4), Fraction(10))
GAUSSIAN_POINTS = 500  # check_complex_bounds at this many sampled (n, z)
GAUSSIAN_POOL_SEED = 190301962
BANG_A, BANG_N = 5, 24  # primitive_prime_divisor for b < a <= BANG_A, 2 <= n <= BANG_N
FINGERPRINT_LIMIT = 240  # longer outputs are kept in the reference as a sha256


def fingerprint(text: str) -> str:
    """The reference form of an output: itself, or its sha256 when long."""
    if len(text) <= FINGERPRINT_LIMIT:
        return text
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()[:32]


# ---------------------------------------------------------------------------
# rendering, as the CLI prints each result; a copy of cli._root_record_obj
# and cli._record_line, so that the benchmark does not depend on the CLI's
# private helpers


def _root_obj(rec, digits: int) -> dict:
    if rec.kind == "real":
        value = rec.value.decimal(digits)
    else:
        value = [rec.value[0].decimal(digits), rec.value[1].decimal(digits)]
    return {
        "kind": rec.kind,
        "value": value,
        "modulus": rec.modulus.decimal(digits),
        "residual": rec.residual.decimal(digits),
        "multiplicity": rec.multiplicity,
    }


def _record_line(rec, digits: int) -> str:
    obj = {"m": rec.m, "n": rec.n, "roots": [_root_obj(r, digits) for r in rec.roots]}
    if rec.max_abs_real is not None:
        obj["max_abs_real"] = rec.max_abs_real.decimal(digits)
    if rec.window_violations:
        obj["window_violations"] = list(rec.window_violations)
    return json.dumps(obj)


# ---------------------------------------------------------------------------
# item calls


def _window(m: int, n: int) -> str:
    counts, at_two = roots.window_counts(m, n)
    verdict = "holds"
    for region, c in zip(roots.WINDOW_REGIONS, counts):
        if not c:
            continue
        if region == "[2,inf)" and (m, n) == roots.KNOWN_WINDOW_EXCEPTION[0] and at_two and c == 1:
            verdict = "exception"
        else:
            return f"{counts} {at_two} violation {region}"
    return f"{counts} {at_two} {verdict}"


def _real_pair(m: int, n: int) -> str:
    return _record_line(roots.real_coincidence_roots(m, n, DIGITS), DIGITS)


def _near_miss(p: int, q: int) -> str:
    beta = nearmiss.near_miss_root(p, q, DIGITS)
    return json.dumps({"p": p, "q": q, "r": p * q - p - q, "beta": beta.decimal(DIGITS)})


def _table_row(p: int, q: int) -> str:
    (rec,) = nearmiss.table1([(p, q)], DIGITS)
    return json.dumps(
        {
            "p": rec.p,
            "q": rec.q,
            "r": rec.r,
            "beta": rec.beta.significant(DIGITS),
            "alpha": rec.alpha.significant(DIGITS),
            "inv_gap": rec.inv_gap.significant(DIGITS),
            "scaled_gap": rec.scaled_gap.significant(DIGITS),
        }
    )


def _limit_family(family: str, param: int) -> str:
    return nearmiss.limit_family_root(family, param, 14).decimal(14)


def _limit_constants() -> str:
    rho, sigma = nearmiss.limit_constants(13)
    return f"{rho.decimal(13)} {sigma.decimal(13)}"


def _complex_pair(m: int, n: int) -> str:
    d = polycore.difference(m, n)
    return json.dumps([_root_obj(r, DIGITS) for r in roots.complex_roots(d, 256)])


def _real_bounds(n: int, x: Fraction) -> str:
    rep = bounds.check_real_bounds(n, x)
    return json.dumps(
        {"n": rep.n, "point": str(rep.point), "ratio": str(rep.ratio.value), "holds": rep.holds,
         "equality": rep.equality}
    )


def _complex_bounds(n: int, re: Fraction, im: Fraction) -> str:
    rep = bounds.check_complex_bounds(n, (re, im))
    return json.dumps(
        {"n": rep.n, "point": [str(re), str(im)], "ratio": rep.ratio.decimal(12), "holds": rep.holds,
         "equality": rep.equality}
    )


def _g_value(m: int, n: int, x: Fraction) -> str:
    return bounds.g_value(m, n, x).decimal(DIGITS)


def _tail_gap(x: Fraction, k: int) -> str:
    left, right, holds = bounds.lemma_tail_gap(x, k)
    return f"{left.decimal(DIGITS)} {right.decimal(DIGITS)} {holds}"


def _gap(n: int) -> str:
    return str(ordering.gap(n))


def _prefix(k: int) -> str:
    return json.dumps(ordering.ordered_prefix(k))


def _consecutive(m: int, n: int) -> str:
    cert = ordering.certify_consecutive(m, n)
    return json.dumps(
        {"m": cert.m, "n": cert.n, "consecutive": cert.consecutive, "between": list(cert.between),
         "classes": {str(k): list(v) for k, v in cert.classes}}
    )


def _bang(a: int, b: int, n: int) -> str:
    res = rationalcheck.primitive_prime_divisor(a, b, n)
    return str(res.prime) if res.prime is not None else res.exception


def _integer_coincidences(a_max: int, m: int) -> str:
    rep = rationalcheck.verify_integer_coincidences(a_max, m)
    return json.dumps({"a_max": rep.a_max, "coincidences": [list(c) for c in rep.coincidences], "holds": rep.holds})


def _rational_coincidences(h: int, m: int) -> str:
    rep = rationalcheck.verify_rational_coincidences(h, m)
    return json.dumps({"height": rep.height, "coincidences": [list(c) for c in rep.coincidences], "holds": rep.holds})


# ---------------------------------------------------------------------------
# item lists, in canonical order; each entry is (key, function, args)


def _pairs(M: int):
    return [(m, n) for m in range(1, M + 1) for n in range(m + 1, M + 1)]


def _near_miss_triples():
    lo, hi = NEAR_MISS_DEGREES
    out = []
    for p in (2, 3):
        for q, _ in nearmiss.find_triples(p, hi):
            if lo < (p - 1) * (q - 1) <= hi:
                out.append((p, q))
    return out


def _gaussian_points():
    # a fixed pool, as in the value-envelope acceptance test: n <= 300 and
    # 2 <= |z| <= 4 on a 10^-6 grid
    rng = random.Random(GAUSSIAN_POOL_SEED)
    out = []
    while len(out) < GAUSSIAN_POINTS:
        n = rng.randint(1, 300)
        radius = rng.randint(200, 400) / 100
        angle = 2 * math.pi * rng.random()
        re = Fraction(int(radius * 10 ** 6 * math.cos(angle)), 10 ** 6)
        im = Fraction(int(radius * 10 ** 6 * math.sin(angle)), 10 ** 6)
        if re * re + im * im >= 4:
            out.append((n, re, im))
    return out


def _window_items():
    return [(f"window {m} {n}", _window, (m, n)) for m, n in _pairs(WINDOW_M)]


def _real_roots_items():
    items = [(f"real {m} {n}", _real_pair, (m, n)) for m, n in _pairs(REAL_M)]
    items += [(f"near-miss {p} {q}", _near_miss, (p, q)) for p, q in _near_miss_triples()]
    items += [(f"table1 {p} {q}", _table_row, (p, q)) for p, q in nearmiss.TABLE_ROWS]
    family_params = {
        "three_p": arith.primes_up_to(60)[2:],
        "six_p": arith.primes_up_to(60)[2:],
        "thirty_p": [7, 11, 13],
        "primorial": [3, 4],
    }
    for family, params in family_params.items():
        items += [(f"limit {family} {k}", _limit_family, (family, k)) for k in params]
    items.append(("limit-constants", _limit_constants, ()))
    return items


def _complex_items():
    return [
        (f"complex {m} {n}", _complex_pair, (m, n))
        for m, n in _pairs(COMPLEX_M)
        if gcd(m, n) == 1 and polycore.difference(m, n).degree >= 1
    ]


def _values_items():
    items = [(f"real-bounds {n} {x}", _real_bounds, (n, x)) for n in range(1, BOUNDS_N + 1) for x in BOUNDS_XS]
    items += [
        (f"complex-bounds {i} {n} {re} {im}", _complex_bounds, (n, re, im))
        for i, (n, re, im) in enumerate(_gaussian_points())
    ]
    for x in (Fraction(1, 2), Fraction(1, 3)):
        items += [(f"g {m} {n} {x}", _g_value, (m, n, x)) for m, n in _pairs(24) if m > 1]
    items += [(f"tail-gap {x} {k}", _tail_gap, (x, k)) for x in BOUNDS_XS[:4] for k in range(1, 21)]
    items += [(f"gap {n}", _gap, (n,)) for n in range(1, 2001)]
    items += [(f"prefix {k}", _prefix, (k,)) for k in range(8, 81, 8)]
    items += [(f"consecutive {2 * p} {p}", _consecutive, (2 * p, p)) for p in arith.primes_up_to(200)[1:]]
    items += [
        (f"consecutive {2 * p ** i} {p ** i}", _consecutive, (2 * p ** i, p ** i)) for p in (3, 5, 7, 11) for i in (2, 3)
    ]
    items += [
        (f"bang {a} {b} {n}", _bang, (a, b, n))
        for a in range(2, BANG_A + 1)
        for b in range(1, a)
        if gcd(a, b) == 1
        for n in range(2, BANG_N + 1)
    ]
    items.append(("integer-coincidences 10 50", _integer_coincidences, (10, 50)))
    items.append(("rational-coincidences 5 50", _rational_coincidences, (5, 50)))
    return items


def _warm(M: int):
    # the sieve behind factorize, then the cyclotomic warm-up the scans do
    def warm():
        arith.factorize(2)
        for i in range(1, M + 1):
            polycore.cyclotomic(i)

    return warm


# name -> (function making the canonical item list, set-up before the first timed item)
WORKLOADS = {
    "window": (_window_items, _warm(WINDOW_M)),
    "real-roots": (_real_roots_items, _warm(REAL_M)),
    "complex-roots": (_complex_items, _warm(COMPLEX_M)),
    "values": (_values_items, _warm(0)),
}


def items(workload: str, seed: int):
    """The workload's items in the order the seed fixes."""
    out = WORKLOADS[workload][0]()
    random.Random(seed).shuffle(out)
    return out
