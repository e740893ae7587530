"""Command-line interface: one verb per artifact.

Exit status:
  0  success;
  1  a verification subcommand finds a claimed invariant violated, or a
     computation fails (root iteration does not converge, an internal
     consistency check fails); the failure is one ``error:`` line on stderr;
  2  usage errors and invalid arguments.

SIGTERM terminates the worker pool of a parallel scan, then ends the
process by SIGTERM itself (status 143 in a shell, -15 from ``subprocess``),
without a traceback.  The lines a scan has already written to --out stay
there for --resume.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from contextlib import nullcontext
from fractions import Fraction
from math import gcd

from . import bounds as bounds_mod
from . import nearmiss as nearmiss_mod
from . import ordering as ordering_mod
from . import rationalcheck as rational_mod
from . import roots as roots_mod
from .arith import profile
from .polycore import cyclotomic, difference, eval_homogeneous_cyclotomic, poly_to_json


def _parse_point(s: str) -> Fraction:
    if "/" in s:
        num, den = s.split("/", 1)
        if int(den) == 0:
            raise ValueError(f"zero denominator in point {s!r}")
        return Fraction(int(num), int(den))
    return Fraction(s)


def _emit(line: str, out) -> None:
    out.write(line + "\n")


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_poly(args, out) -> int:
    p = cyclotomic(args.n)
    if args.format == "json":
        _emit(poly_to_json(p, args.n), out)
    else:
        _emit(str(p), out)
    return 0


def _cmd_eval(args, out) -> int:
    x = _parse_point(args.x)
    val = eval_homogeneous_cyclotomic(args.n, x.numerator, x.denominator)
    _emit(str(Fraction(val, x.denominator ** profile(args.n).phi)), out)
    return 0


def _cmd_order(args, out) -> int:
    if args.what == "class":
        members = ordering_mod.phi_class_sorted(args.k)
        _emit_list(members, args.format, out)
    elif args.what == "prefix":
        members = ordering_mod.ordered_prefix(args.k)
        _emit_list(members, args.format, out)
    elif args.what == "gap":
        _emit(str(ordering_mod.gap(args.k)), out)
    else:  # consecutive
        cert = ordering_mod.certify_consecutive(args.k, args.n2)
        if args.format == "json":
            _emit(
                json.dumps(
                    {
                        "m": cert.m,
                        "n": cert.n,
                        "consecutive": cert.consecutive,
                        "between": list(cert.between),
                        "classes": {str(k): list(v) for k, v in cert.classes},
                    }
                ),
                out,
            )
        else:
            _emit("consecutive" if cert.consecutive else
                  "not consecutive; between: " + " ".join(map(str, cert.between)), out)
    return 0


def _emit_list(members, fmt, out) -> None:
    if fmt == "json":
        _emit(json.dumps(members), out)
    else:
        for m in members:
            _emit(str(m), out)


def _root_record_obj(rec: roots_mod.RootRecord, digits: int) -> dict:
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


def _record_obj(rec: roots_mod.CoincidenceRecord, digits: int) -> dict:
    obj = {"m": rec.m, "n": rec.n, "roots": [_root_record_obj(r, digits) for r in rec.roots]}
    if rec.max_abs_real is not None:
        obj["max_abs_real"] = rec.max_abs_real.decimal(digits)
    if rec.window_violations:
        obj["window_violations"] = list(rec.window_violations)
    return obj


def _record_line(rec: roots_mod.CoincidenceRecord, digits: int) -> str:
    return json.dumps(_record_obj(rec, digits))


def _cmd_roots(args, out) -> int:
    digits = args.digits
    rec = roots_mod.real_coincidence_roots(args.m, args.n, digits)
    if args.complex:
        d = difference(args.m, args.n)
        if d.degree >= 1:
            cplx = [r for r in roots_mod.complex_roots(d, 256) if r.kind == "complex"]
            rec = roots_mod.CoincidenceRecord(
                m=rec.m, n=rec.n, roots=rec.roots + tuple(cplx), max_abs_real=rec.max_abs_real
            )
    _emit(_record_line(rec, digits), out)
    return 0


def _cmd_scan(args, out) -> int:
    """Scan every pair up to --max-index; a fresh run is a resume from an empty cache.

    Each pair's line is streamed as it finishes (appended and flushed to
    --out), so a killed scan leaves a cache that --resume completes.  The
    summary is computed from the merged lines alone, and --out is finally
    rewritten sorted by (m, n), so resumed and fresh runs give the same bytes.
    """
    if args.resume and not args.out:
        print("scan: --resume requires --out", file=sys.stderr)
        return 2
    if args.digits < 1:
        raise ValueError("digits must be >= 1")
    roots_mod.effective_jobs(args.jobs)  # refuses a bad --jobs or CYCLOLAB_JOBS before --out is opened
    M = args.max_index
    if M < 2:
        raise ValueError("scan requires --max-index >= 2")
    pairs = [
        (m, n)
        for m in range(1, M + 1)
        for n in range(m + 1, M + 1)
        if not (args.complex and args.coprime) or gcd(m, n) == 1
    ]
    cache, torn = _load_cache(args.out) if args.resume else ({}, False)
    lines = {p: cache[p] for p in pairs if p in cache}
    if args.complex:
        worker, render, param = roots_mod._complex_scan_worker, _complex_line, 256
    else:
        worker, render, param = roots_mod._real_scan_worker, _record_line, args.digits
    todo = [(m, n, param) for m, n in pairs if (m, n) not in lines]
    roots_mod._warm_cyclotomic_cache(M)
    with open(args.out, "a" if args.resume else "w") if args.out else nullcontext(out) as sink:
        if torn:
            sink.write("\n")
        for result, (m, n, _) in zip(roots_mod._parallel_map(worker, todo, args.jobs), todo):
            lines[(m, n)] = render(result, args.digits)
            sink.write(lines[(m, n)] + "\n")
            sink.flush()
    merged = [lines[p] for p in pairs]
    objs = [json.loads(line) for line in merged]
    if args.complex:
        summary, ok = _complex_summary(M, args.coprime, objs)
    else:
        summary, ok = _real_summary(M, objs, args.jobs)
    if args.out:
        tmp = args.out + ".tmp"
        with open(tmp, "w") as fh:
            fh.writelines(line + "\n" for line in merged)
            fh.write(summary + "\n")
        os.replace(tmp, args.out)
    else:
        _emit(summary, out)
    return 0 if ok else 1


def _complex_line(result, digits: int) -> str:
    rec, boundary, outside = result
    obj = _record_obj(rec, digits)
    if boundary:
        obj["sqrt2_attained"] = True
    if outside:
        # a nonreal root outside the range brings its conjugate along
        obj["outside"] = sorted({why for _, _, why in outside})
    return json.dumps(obj)


def _complex_summary(M: int, coprime: bool, objs: list[dict]) -> tuple[str, bool]:
    boundary = [[o["m"], o["n"]] for o in objs if o.get("sqrt2_attained")]
    outside = [[o["m"], o["n"], why] for o in objs for why in o.get("outside", ())]
    summary = {
        "summary": "complex",
        "max_index": M,
        "coprime_only": coprime,
        "boundary_upper": boundary,
        "outside": outside,
    }
    return json.dumps(summary), not outside


def _real_summary(M: int, objs: list[dict], jobs: int | None) -> tuple[str, bool]:
    window = roots_mod.verify_root_window(M, jobs)
    # rounding is monotone, so the extreme rendered moduli are the rendered
    # extremes.  Skip exact-zero roots and the root 2 of {2, 6}, as
    # real_coincidence_roots does; a nonzero root that renders as zero is a
    # window violation.
    moduli = []
    for obj in objs:
        violations = obj.get("window_violations", ())
        for i, root in enumerate(obj["roots"]):
            v = Fraction(root["value"])
            exception = ((obj["m"], obj["n"]), v) == roots_mod.KNOWN_WINDOW_EXCEPTION
            if i not in violations and (v == 0 or exception):
                continue
            moduli.append(root["modulus"])
    summary = {
        "summary": "real",
        "max_index": window.max_index,
        "pairs_checked": window.pairs_checked,
        "window_holds": window.holds,
        "exception_found": window.exception_found,
        "violations": [list(v) for v in window.violations],
    }
    if moduli:
        summary["max_nonzero_abs_root"] = max(moduli, key=Fraction)
        summary["min_nonzero_abs_root"] = min(moduli, key=Fraction)
    return json.dumps(summary), window.holds


def _load_cache(path: str) -> tuple[dict[tuple[int, int], str], bool]:
    """Complete pair lines of an earlier run, and whether its last line is torn."""
    if not os.path.exists(path):
        return {}, False
    with open(path) as fh:
        text = fh.read()
    done: dict[tuple[int, int], str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            continue  # interrupted write
        if "m" in obj and "n" in obj:
            done[(obj["m"], obj["n"])] = line
    return done, bool(text) and not text.endswith("\n")


def _cmd_nearmiss(args, out) -> int:
    triples = nearmiss_mod.find_triples(args.p, args.qmax)
    for q, r in triples:
        beta = nearmiss_mod.near_miss_root(args.p, q, args.digits)
        _emit(
            json.dumps({"p": args.p, "q": q, "r": r, "beta": beta.decimal(args.digits)}), out
        )
    return 0


_TABLE_COLUMNS = ("p", "q", "r", "beta", "alpha", "inv_gap", "scaled_gap")


def _cmd_table1(args, out) -> int:
    rows = None
    if args.extend:  # every triple with q <= QMAX, for each p up to 13
        rows = [(p, q) for p in (3, 5, 7, 11, 13) for q, _ in nearmiss_mod.find_triples(p, args.extend)]
    sig = args.digits
    if args.format == "csv":
        _emit(",".join(_TABLE_COLUMNS), out)
    for rec in nearmiss_mod.table1(rows=rows, digits=sig):
        cells = [rec.p, rec.q, rec.r] + [getattr(rec, col).significant(sig) for col in _TABLE_COLUMNS[3:]]
        if args.format == "json":
            _emit(json.dumps(dict(zip(_TABLE_COLUMNS, cells))), out)
        else:
            _emit(",".join(map(str, cells)), out)
    return 0


def _cmd_bounds(args, out) -> int:
    xs = [_parse_point(s) for s in args.xs.split(",")]
    all_hold = True
    for report in bounds_mod.real_bounds_grid(args.n_max, xs):
        all_hold &= report.holds
        _emit(
            json.dumps(
                {
                    "n": report.n,
                    "point": str(report.point),
                    "ratio": str(report.ratio.value),
                    "holds": report.holds,
                    "equality": report.equality,
                }
            ),
            out,
        )
    return 0 if all_hold else 1


def _cmd_bang(args, out) -> int:
    res = rational_mod.primitive_prime_divisor(args.a, args.b, args.n)
    _emit(str(res.prime) if res.prime is not None else res.exception, out)
    return 0


def _cmd_verify_rational(args, out) -> int:
    int_report = rational_mod.verify_integer_coincidences(args.height, args.max_index)
    rat_report = rational_mod.verify_rational_coincidences(args.height, args.max_index)
    _emit(
        json.dumps(
            {
                "integers": {
                    "a_max": int_report.a_max,
                    "coincidences": [list(c) for c in int_report.coincidences],
                    "holds": int_report.holds,
                },
                "fractions": {
                    "height": rat_report.height,
                    "coincidences": [list(c) for c in rat_report.coincidences],
                    "holds": rat_report.holds,
                },
            }
        ),
        out,
    )
    return 0 if int_report.holds and rat_report.holds else 1


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cyclolab")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("poly", help="coefficients of the n-th cyclotomic polynomial")
    p.add_argument("n", type=int)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("eval", help="exact value of the n-th cyclotomic polynomial")
    p.add_argument("n", type=int)
    p.add_argument("x", help="integer or a/b")

    p = sub.add_parser("order", help="total order queries")
    p.add_argument("what", choices=("class", "prefix", "consecutive", "gap"))
    p.add_argument("k", type=int)
    p.add_argument("n2", type=int, nargs="?")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("roots", help="certified roots of one difference")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--digits", type=int, default=15)
    p.add_argument("--complex", action="store_true")

    p = sub.add_parser("scan", help="scan all pairs up to an index bound")
    p.add_argument("--max-index", type=int, required=True)
    p.add_argument("--complex", action="store_true")
    p.add_argument("--coprime", action="store_true")
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--resume", action="store_true")
    p.add_argument("--digits", type=int, default=15)

    p = sub.add_parser("nearmiss", help="prime triples and their near-miss roots")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--qmax", type=int, required=True)
    p.add_argument("--digits", type=int, default=15)

    p = sub.add_parser("table1", help="near-miss reference table")
    p.add_argument("--digits", type=int, default=15)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--extend", type=int, default=0, metavar="QMAX",
                   help="list every triple with q up to QMAX for p in {3,5,7,11,13}, not the printed rows")

    p = sub.add_parser("bounds", help="value-envelope checks on a grid")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--xs", required=True, help="comma-separated rationals, e.g. 2,5/2,3")

    p = sub.add_parser("bang", help="primitive prime divisor of a^n - b^n")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("n", type=int)

    p = sub.add_parser("verify-rational", help="exhaustive coincidence check at rational points")
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--max-index", type=int, required=True)

    return ap


_HANDLERS = {
    "poly": _cmd_poly,
    "eval": _cmd_eval,
    "order": _cmd_order,
    "roots": _cmd_roots,
    "scan": _cmd_scan,
    "nearmiss": _cmd_nearmiss,
    "table1": _cmd_table1,
    "bounds": _cmd_bounds,
    "bang": _cmd_bang,
    "verify-rational": _cmd_verify_rational,
}


def dispatch(argv: list[str], out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.cmd == "order" and args.what == "consecutive" and args.n2 is None:
            parser.error("order consecutive requires two indices")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.cmd](args, out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (roots_mod.RootConvergenceError, AssertionError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def _on_sigterm(signum, frame) -> None:
    # stop the pool workers first, so that none outlives the parent and
    # fails writing to its pipe; then die of the signal as if unhandled.
    # Only a parallel scan loads multiprocessing, so without it there are none
    mp = sys.modules.get("multiprocessing")
    for child in mp.active_children() if mp else ():
        child.terminate()
    signal.signal(signum, signal.SIG_DFL)
    signal.raise_signal(signum)


def main() -> None:
    signal.signal(signal.SIGTERM, _on_sigterm)
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
