"""The root window 1/2 < |x| < 2, certified pair by pair.

The window is certified region by region with Descartes' rule of signs
on Taylor-shifted polynomials.  Shifts are linear, so for a pair (m, n)
each region's shifted polynomial, packed into one integer, is a
difference of values cached once per index, and one sign-byte scan of it
(``polycore._packed_root_free``) decides the region.  The padding is
per index, not per pair: a pair's degree is rounded up a short ladder,
and each index's inner values are padded to each degree of the ladder
once (``_index_padded``), so a region costs no product.  3^D and the
digit bias are cached once per process too.  A pair those values do not
clear takes the exact path: endpoint roots divided out, and each
region counted by ``roots._roots_in``, by Descartes when it shows 0 or 1
variation and otherwise on the Sturm chain of what is left, built at most
once per pair.
One rule turns per-pair counts into the window verdict, for the library
and the real and window-only scans alike (``window_report``).
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .polycore import IntPoly, _digit_bytes, _packed, _packed_root_free, cyclotomic, difference
from .record import Record
from .roots import (
    KNOWN_WINDOW_EXCEPTION,
    WINDOW_REGIONS,
    _parallel_map,
    _roots_in,
    _strip_root_at,
    _warm_cyclotomic_cache,
    real_coincidence_roots,
)

# the nonzero window endpoints -2, -1/2, 1/2, 2 as (numerator, denominator),
# each closing one of the regions (-inf,-2], [-1/2,0), (0,1/2], [2,inf)
_WINDOW_POINTS = ((-2, 1), (-1, 2), (1, 2), (2, 1))
# the open regions, an infinite end (None) beside an integer one
_WINDOW_OPEN = ((None, -2), (Fraction(-1, 2), 0), (0, Fraction(1, 2)), (2, None))
_DIGIT_BUCKET = 8  # packed digit widths round up to a multiple of this many bytes


def _region_maps(cs):
    # the regions, in WINDOW_REGIONS order, are t >= 0 under x = -(2+t),
    # -1/(2+t), 1/(2+t), 2+t; x -> -x flips odd coefficients, and reversed
    # coefficients are those of x^deg p(1/x), so each map is one of these
    # lists at x = 2+t
    flipped = [-c if i % 2 else c for i, c in enumerate(cs)]  # p(-x)
    return flipped, flipped[::-1], cs[::-1], cs


def _window_counts(p: IntPoly) -> tuple[tuple[int, int, int, int], bool, int]:
    # window_counts for any nonzero p, plus the number of regions that
    # needed a Sturm count
    cs = list(p.coeffs)
    cs = cs[next(i for i, c in enumerate(cs) if c):]  # divide out x^k
    hits = []
    for a, b in _WINDOW_POINTS:
        cs, hit = _strip_root_at(cs, a, b)
        hits.append(hit)
    # cs is now q, with no root at 0 or at an endpoint; the regions share
    # q's Sturm chain, built by the first one Descartes does not settle
    counts, fallbacks, chain = [], 0, None
    for (lo, hi), hit in zip(_WINDOW_OPEN, hits):
        inside, used = _roots_in(cs, lo, hi, chain)
        if used is not None:
            chain, fallbacks = used, fallbacks + 1
        counts.append(inside + hit)
    return tuple(counts), hits[-1], fallbacks


@lru_cache(maxsize=None)
def _index_norms(n: int) -> tuple[int, int]:
    # (phi(n), ||Phi_n||_1)
    cs = cyclotomic(n).coeffs
    return len(cs) - 1, sum(map(abs, cs))


@lru_cache(maxsize=None)
def _index_packed(n: int, nb: int) -> tuple[int, ...]:
    # Phi_n(-y), y^phi Phi_n(-1/y), y^phi Phi_n(1/y) and Phi_n(y) at
    # y = 2^(8 nb) + 2: the region maps of Phi_n, packed.  For n >= 3,
    # Phi_n is palindromic of even degree, so y^phi Phi_n(+-1/y) =
    # Phi_n(+-y): two values are computed, and each is held twice
    y = (1 << 8 * nb) + 2
    maps = _region_maps(list(cyclotomic(n).coeffs))
    if n <= 2:
        return tuple(_packed(ts, y) for ts in maps)
    neg, pos = _packed(maps[0], y), _packed(maps[3], y)
    return neg, neg, pos, pos


@lru_cache(maxsize=None)
def _power_of_three(D: int) -> int:
    return 3 ** D


@lru_cache(maxsize=None)
def _index_padded(n: int, nb: int, D: int) -> tuple[int, ...]:
    # _index_packed(n, nb) with the inner two values times y^(D - phi(n)):
    # the region maps of Phi_n as polynomials of degree D, the inner ones
    # times (2+t)^(D - phi), which is positive at every t >= 0
    neg, neg_inv, pos_inv, pos = _index_packed(n, nb)
    w = ((1 << 8 * nb) + 2) ** (D - _index_norms(n)[0])
    return neg, neg_inv * w, pos_inv * w, pos


def _window_clear(m: int, n: int) -> bool:
    """Whether cached per-index values prove Phi_m - Phi_n root-free on
    every window region, endpoints included.

    Taylor shifts are linear, so with d = Phi_m - Phi_n and Db >= max phi
    the shifted region polynomials d(-(2+t)), d(2+t) and
    (2+t)^Db d(+-1/(2+t)) are differences of per-index ones, the inner
    ones padded to degree Db by a factor (2+t)^(Db - phi), which is
    positive at every t >= 0 and so changes no root there.  Db is
    D = max phi rounded up a ladder, to a multiple of
    2^max(3, bitlen(D) - 3): steps of 8 below degree 64, of 16 below 128,
    and so on.  Each index is thus padded to few degrees, once per
    process (``_index_padded``), and a pair multiplies nothing.  Padding
    past D multiplies the inner region polynomials by (2+t)^(Db - D), and
    a polynomial with no sign variation keeps none, so rounding up clears
    every pair that D would.  The coefficients are at most
    (||Phi_m||_1 + ||Phi_n||_1) * 3^Db in absolute value, so at
    y = 2^(8 nb) + 2, with nb bytes above that bound, each region's packed
    value is one subtraction of cached ones, and ``_packed_root_free``
    reads its verdict off that value.  3^Db and the digit bias of
    ``_packed_root_free`` are cached once per process too.
    """
    (fm, lm), (fn, ln) = _index_norms(m), _index_norms(n)
    D = max(fm, fn)
    D += -D % (1 << max(3, D.bit_length() - 3))  # up the ladder, to Db
    nb = _digit_bytes((lm + ln) * _power_of_three(D))
    nb += -nb % _DIGIT_BUCKET  # shares the cached values among pairs
    for a, b in zip(_index_padded(m, nb, D), _index_padded(n, nb, D)):
        if not _packed_root_free(a - b, nb, D + 1):
            return False
    return True


def _pair_window(m: int, n: int) -> tuple[tuple[int, int, int, int], bool, int]:
    # window_counts(m, n) plus its Sturm fallbacks; a pair the cached values
    # do not clear takes the exact path
    if _window_clear(m, n):
        return (0, 0, 0, 0), False, 0
    return _window_counts(difference(m, n))


def window_counts(m: int, n: int) -> tuple[tuple[int, int, int, int], bool]:
    """Exact root counts on (-inf,-2], [-1/2,0), (0,1/2], [2,inf) for Phi_m - Phi_n.

    Also reports whether a root sits exactly at 2 (the sanctioned
    exception for the pair {2,6}).  Counts are of distinct roots.  Each
    region is mapped to t >= 0 by x = -(2+t), -1/(2+t), 1/(2+t) or 2+t,
    and a Taylor-shifted polynomial with a nonzero constant term and no
    sign variation proves the region empty (Descartes' rule of signs).
    The four are first read off cached per-index values
    (``_window_clear``).  A pair they do not clear takes the exact path:
    roots at -2, -1/2, 0, 1/2 and 2 are divided out, a region that shows
    0 or 1 variation is counted by Descartes, and one that shows two or
    more on the Sturm chain of what is left, one chain per pair.
    """
    counts, at_two, _ = _pair_window(m, n)
    return counts, at_two


class WindowReport(Record):
    """Outcome of the outer-window certification over all pairs up to M."""

    __slots__ = ("max_index", "pairs_checked", "violations", "exception_found",
                 "sturm_fallbacks")  # regions with 2 or more Descartes variations
    _defaults = {"sturm_fallbacks": 0}

    @property
    def holds(self) -> bool:
        return not self.violations


def _window_worker(pair):
    m, n = pair
    return (m, n, *_pair_window(m, n))


def _real_worker(args):
    # one pair of the real scan: its record and its window counts, so the
    # scan's window verdict is a fold of its pair lines
    m, n, digits = args
    return real_coincidence_roots(m, n, digits), _window_worker((m, n))


def window_report(M: int, rows: list, sturm_fallbacks: int = 0) -> WindowReport:
    """Fold per-pair rows (m, n, counts, at_two) of every pair up to M into
    a report.  Each nonzero count is a violation, except one root at
    exactly 2 for the pair {2, 6}, which is the known exception."""
    violations = []
    exception_found = False
    for m, n, counts, at_two in rows:
        for region, c in zip(WINDOW_REGIONS, counts):
            if c == 0:
                continue
            if region == "[2,inf)" and (m, n) == KNOWN_WINDOW_EXCEPTION[0] and at_two and c == 1:
                exception_found = True
                continue
            violations.append((m, n, region, c))
    return WindowReport(
        max_index=M,
        pairs_checked=len(rows),
        violations=tuple(violations),
        exception_found=exception_found,
        sturm_fallbacks=sturm_fallbacks,
    )


def verify_root_window(M: int, jobs: int | None = None) -> WindowReport:
    """Certify, pair by pair up to M, that no nonzero real coincidence
    escapes 1/2 < |x| < 2 except the known root of the pair {2,6} at 2."""
    if M < 2:
        raise ValueError("verify_root_window requires M >= 2")
    _warm_cyclotomic_cache(M)
    pairs = [(m, n) for m in range(1, M + 1) for n in range(m + 1, M + 1)]
    results = list(_parallel_map(_window_worker, pairs, jobs))
    return window_report(M, [r[:4] for r in results], sum(r[4] for r in results))
