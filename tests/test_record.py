"""Every result record behaves as a frozen value: repr, signature, equality,
hash, pickling and immutability are pinned, with each record's checks."""
import importlib
import inspect
import pickle
import pkgutil
from fractions import Fraction

import pytest

import cyclolab
from cyclolab.arith import ArithProfile, Factorization
from cyclolab.bounds import BoundReport
from cyclolab.certified import BigFloat
from cyclolab.complexroots import ComplexScanReport
from cyclolab.nearmiss import DeltaDecomposition, TripleRecord
from cyclolab.ordering import ConsecutiveCertificate
from cyclolab.polycore import IntPoly
from cyclolab.rationalcheck import IntegerCoincidenceReport, PpdResult, RationalCoincidenceReport
from cyclolab.record import Record
from cyclolab.roots import CoincidenceRecord, IsolatingInterval, RootRecord
from cyclolab.window import WindowReport

BF = BigFloat(Fraction(3, 2), Fraction(1, 2 ** 64))
EXACT = BigFloat(Fraction(-1, 3))
ROOT = RootRecord("real", BF, BF, EXACT, 1)

BF_REPR = "BigFloat(value=Fraction(3, 2), error_bound=Fraction(1, 18446744073709551616))"
EXACT_REPR = "BigFloat(value=Fraction(-1, 3), error_bound=Fraction(0, 1))"
ROOT_REPR = f"RootRecord(kind='real', value={BF_REPR}, modulus={BF_REPR}, residual={EXACT_REPR}, multiplicity=1)"

# (class, positional arguments, repr, parameters with their defaults)
CASES = [
    (Factorization, (12, ((2, 2), (3, 1))), "Factorization(n=12, factors=((2, 2), (3, 1)))", "n, factors"),
    (
        ArithProfile,
        (12, 4, 1, 2, 6, 2),
        "ArithProfile(n=12, phi=4, mu_rad=1, omega=2, rad=6, qpart=2)",
        "n, phi, mu_rad, omega, rad, qpart",
    ),
    (
        BigFloat,
        (Fraction(3, 2), Fraction(1, 2 ** 64)),
        BF_REPR,
        "value, error_bound=Fraction(0, 1)",
    ),
    (
        BoundReport,
        (7, (Fraction(2), Fraction(-1, 3)), BF, True, False),
        f"BoundReport(n=7, point=(Fraction(2, 1), Fraction(-1, 3)), ratio={BF_REPR}, holds=True, equality=False)",
        "n, point, ratio, holds, equality",
    ),
    (
        ComplexScanReport,
        (6, True, (CoincidenceRecord(1, 6, (ROOT,)),), ((1, 6),), ((2, 3, "r"),)),
        f"ComplexScanReport(max_index=6, coprime_only=True, records=(CoincidenceRecord(m=1, n=6, roots=({ROOT_REPR},), "
        "max_abs_real=None, window_violations=()),), boundary_upper=((1, 6),), outside=((2, 3, 'r'),))",
        "max_index, coprime_only, records, boundary_upper, outside",
    ),
    (
        DeltaDecomposition,
        (3, 5, IntPoly([0, 0, 1]), IntPoly([1, -1])),
        "DeltaDecomposition(p=3, q=5, main=IntPoly(coeffs=(0, 0, 1)), delta=IntPoly(coeffs=(1, -1)))",
        "p, q, main, delta",
    ),
    (
        TripleRecord,
        (3, 5, 7, BF, EXACT, BF, EXACT),
        f"TripleRecord(p=3, q=5, r=7, beta={BF_REPR}, alpha={EXACT_REPR}, inv_gap={BF_REPR}, scaled_gap={EXACT_REPR})",
        "p, q, r, beta, alpha, inv_gap, scaled_gap",
    ),
    (
        ConsecutiveCertificate,
        (18, 9, True, (), ((6, (7, 9, 14, 18)),)),
        "ConsecutiveCertificate(m=18, n=9, consecutive=True, between=(), classes=((6, (7, 9, 14, 18)),))",
        "m, n, consecutive, between, classes",
    ),
    (IntPoly, ([1, 0, -1, 0, 0],), "IntPoly(coeffs=(1, 0, -1))", "coeffs=()"),
    (
        PpdResult,
        (2, 1, 6, None, "bang_2_6"),
        "PpdResult(a=2, b=1, n=6, prime=None, exception='bang_2_6')",
        "a, b, n, prime, exception",
    ),
    (
        IntegerCoincidenceReport,
        (3, 10, 180, ((2, 2, 6),)),
        "IntegerCoincidenceReport(a_max=3, max_index=10, pairs_checked=180, coincidences=((2, 2, 6),))",
        "a_max, max_index, pairs_checked, coincidences",
    ),
    (
        RationalCoincidenceReport,
        (3, 10, 45, (("3/2", 1, 2),)),
        "RationalCoincidenceReport(height=3, max_index=10, points_checked=45, coincidences=(('3/2', 1, 2),))",
        "height, max_index, points_checked, coincidences",
    ),
    (
        IsolatingInterval,
        (Fraction(1), Fraction(5, 2), -1, 1),
        "IsolatingInterval(lo=Fraction(1, 1), hi=Fraction(5, 2), sign_lo=-1, sign_hi=1)",
        "lo, hi, sign_lo, sign_hi",
    ),
    (
        RootRecord,
        ("real", BF, BF, EXACT, 1),
        ROOT_REPR,
        "kind, value, modulus, residual, multiplicity",
    ),
    (
        CoincidenceRecord,
        (2, 6, (ROOT,), BF, (0,)),
        f"CoincidenceRecord(m=2, n=6, roots=({ROOT_REPR},), max_abs_real={BF_REPR}, window_violations=(0,))",
        "m, n, roots, max_abs_real=None, window_violations=()",
    ),
    (
        WindowReport,
        (10, 45, ((2, 6, "above", 1),), True),
        "WindowReport(max_index=10, pairs_checked=45, violations=((2, 6, 'above', 1),), exception_found=True, "
        "sturm_fallbacks=0)",
        "max_index, pairs_checked, violations, exception_found, sturm_fallbacks=0",
    ),
]
IDS = [case[0].__name__ for case in CASES]


def _params(cls) -> str:
    return ", ".join(
        p.name if p.default is p.empty else f"{p.name}={p.default!r}"
        for p in inspect.signature(cls).parameters.values()
    )


@pytest.mark.parametrize("cls, args, text, params", CASES, ids=IDS)
class TestRecord:
    def test_repr_and_signature(self, cls, args, text, params):
        assert repr(cls(*args)) == text
        assert _params(cls) == params

    def test_value_equality_and_hash(self, cls, args, text, params):
        a, b = cls(*args), cls(*args)
        assert a == b and not a != b and hash(a) == hash(b)
        fields = tuple(getattr(a, name) for name in a.__slots__)
        assert hash(a) == hash(fields)  # a frozen dataclass's hash over its fields
        assert a != fields

    def test_other_class_on_same_values_differs(self, cls, args, text, params):
        twin = type("Twin", (cls,), {"__slots__": ()})
        a, b = cls(*args), twin(*args)
        assert a != b and b != a and not a == b

    def test_pickle_round_trip(self, cls, args, text, params):
        rec = cls(*args)
        back = pickle.loads(pickle.dumps(rec))
        assert type(back) is cls and back == rec and repr(back) == text

    def test_frozen(self, cls, args, text, params):
        rec = cls(*args)
        name = rec.__slots__[0]
        before = getattr(rec, name)
        with pytest.raises(AttributeError):
            setattr(rec, name, before)
        with pytest.raises(AttributeError):
            delattr(rec, name)
        with pytest.raises(AttributeError):
            rec.extra = 1
        assert getattr(rec, name) is before


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: BigFloat(Fraction(1), Fraction(-1, 8)), "error_bound must be nonnegative"),
        (lambda: IsolatingInterval(Fraction(2), Fraction(1), -1, 1), "lo < hi"),
        (lambda: IsolatingInterval(Fraction(1), Fraction(1), -1, 1), "lo < hi"),
        (lambda: IsolatingInterval(Fraction(1), Fraction(2), 0, 1), "signs must be nonzero"),
        (lambda: Factorization(12, ((3, 1), (2, 2))), "ascending primes"),
        (lambda: Factorization(12, ((2, 0), (3, 1))), "ascending primes"),
        (lambda: Factorization(12, ((2, 1), (3, 1))), "does not multiply to n"),
        (lambda: PpdResult(2, 1, 6, None, None), "exactly one"),
        (lambda: PpdResult(2, 1, 6, 7, "bang_2_6"), "exactly one"),
    ],
)
def test_validation_still_raises(build, message):
    with pytest.raises(ValueError, match=message):
        build()


# every record of the package, found rather than listed: each module is
# imported (``__main__`` would run the CLI), then Record's subclasses read
for _mod in pkgutil.iter_modules(cyclolab.__path__):
    if _mod.name != "__main__":
        importlib.import_module(f"cyclolab.{_mod.name}")
RECORDS = sorted(
    (cls for cls in Record.__subclasses__() if cls.__module__.startswith("cyclolab.")), key=lambda cls: cls.__name__
)
ARGS = {case[0]: case[1] for case in CASES}
WRITTEN_INITS = {"BigFloat", "Factorization", "IntPoly", "IsolatingInterval", "PpdResult"}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    assert cls in ARGS, f"add a CASES entry for {cls.__name__}"
    args = ARGS[cls]
    params = inspect.signature(cls).parameters
    assert list(params) == list(cls.__slots__)  # __reduce__ rebuilds a record as cls(*fields)
    kwargs = dict(zip(params, args))
    assert cls(**kwargs) == cls(*args)
    for name, p in params.items():
        if p.default is p.empty:
            with pytest.raises(TypeError):
                cls(**{k: v for k, v in kwargs.items() if k != name})
    with pytest.raises(TypeError):
        cls(*args, *[None] * (len(params) + 1 - len(args)))
    with pytest.raises(TypeError):
        cls(**kwargs, extra=None)


def test_only_checking_records_write_their_init():
    # the rest get theirs from __slots__; a generated init has no source file
    assert {cls.__name__ for cls in RECORDS if cls.__init__.__code__.co_filename != "<string>"} == WRITTEN_INITS
    assert set(RECORDS) == set(ARGS)  # every record CASES lists is found


def test_defaults_only_for_trailing_fields():
    with pytest.raises(KeyError):
        type("Bad", (Record,), {"__slots__": ("a", "b"), "_defaults": {"a": 0}})


def test_root_record_holds_what_the_cli_prints():
    # a RootRecord field that no output prints cannot come back unnoticed
    from cyclolab.cli import _root_record_obj

    assert tuple(_root_record_obj(ROOT, 15)) == RootRecord.__slots__
    assert RootRecord.__slots__ == ("kind", "value", "modulus", "residual", "multiplicity")
