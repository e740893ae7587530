import io
import json
import os
import shlex
import signal
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import cyclolab
from cyclolab import complexroots as complex_mod, roots as roots_mod, window as window_mod
from cyclolab.cli import _build_parser, _record_line, dispatch


def run_cli(argv):
    out = io.StringIO()
    code = dispatch(argv, out)
    return code, out.getvalue()


def _root_digits(obj: dict, places: str) -> list:
    # every root's kind, multiplicity, value and modulus, rounded to the
    # decimal places of ``places`` (half-even, as the CLI rounds)
    def at(s):
        return str(Decimal(s).quantize(Decimal(places)))

    return [
        (r["kind"], r["multiplicity"], [at(v) for v in r["value"]] if r["kind"] == "complex" else at(r["value"]),
         at(r["modulus"]))
        for r in obj["roots"]
    ]


class TestPoly:
    def test_json_coefficient(self):
        code, out = run_cli(["poly", "105", "--format", "json"])
        assert code == 0
        obj = json.loads(out)
        assert obj["n"] == 105
        assert obj["coeffs"][7] == "-2"

    def test_text(self):
        code, out = run_cli(["poly", "6"])
        assert code == 0
        assert out.strip() == "x^2 - x + 1"


class TestEval:
    def test_integer_point(self):
        assert run_cli(["eval", "6", "2"]) == (0, "3\n")

    def test_fraction_point(self):
        assert run_cli(["eval", "4", "1/2"]) == (0, "5/4\n")

    def test_negative_fraction_point(self):
        # -2/4 is the point -1/2, not an option
        assert run_cli(["eval", "7", "-2/4"]) == (0, "43/64\n")
        assert run_cli(["eval", "3", "-1/2"]) == (0, "3/4\n")
        assert run_cli(["eval", "3", "-2"]) == (0, "3\n")

    def test_zero_denominator(self, capsys):
        assert run_cli(["eval", "5", "1/0"]) == (2, "")
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "zero denominator" in err[0]

    def test_digits_is_not_an_option(self, capsys):
        # the value is exact, so there is nothing to round
        assert run_cli(["eval", "6", "2", "--digits", "5"]) == (2, "")
        assert "unrecognized arguments: --digits 5" in capsys.readouterr().err


class TestOrder:
    def test_class(self):
        code, out = run_cli(["order", "class", "8"])
        assert code == 0
        assert out.split() == ["15", "20", "24", "16", "30"]

    def test_prefix_json(self):
        code, out = run_cli(["order", "prefix", "2", "--format", "json"])
        assert json.loads(out) == [1, 2, 6, 4, 3]

    def test_gap(self):
        assert run_cli(["order", "gap", "12"]) == (0, "2\n")

    def test_consecutive(self):
        code, out = run_cli(["order", "consecutive", "18", "9"])
        assert code == 0 and out.strip() == "consecutive"

    def test_consecutive_needs_two(self):
        code, _ = run_cli(["order", "consecutive", "18"])
        assert code == 2

    @pytest.mark.parametrize("what", ["class", "prefix", "gap"])
    def test_second_index_refused(self, capsys, what):
        assert run_cli(["order", what, "4", "9"]) == (2, "")
        assert capsys.readouterr().err.endswith(f"error: order {what} takes one index\n")


class TestRoots:
    def test_exception_pair(self):
        code, out = run_cli(["roots", "2", "6", "--digits", "6"])
        assert code == 0
        obj = json.loads(out)
        assert [r["value"] for r in obj["roots"]] == ["0.000000", "2.000000"]

    def test_complex_flag(self):
        code, out = run_cli(["roots", "1", "3", "--digits", "6", "--complex"])
        obj = json.loads(out)
        kinds = [r["kind"] for r in obj["roots"]]
        assert kinds == ["complex", "complex"]

    @pytest.mark.parametrize("digits", ["80", "200"])
    def test_complex_at_high_digits(self, digits):
        # the complex precision follows --digits; at 256 bits alone the
        # enclosures cannot round to about 77 digits or more
        code, out = run_cli(["roots", "3", "7", "--complex", "--digits", digits])
        assert code == 0
        roots = json.loads(out)["roots"]
        assert all(len(r["modulus"].split(".")[1]) == int(digits) for r in roots)
        default = json.loads(run_cli(["roots", "3", "7", "--complex"])[1])
        assert _root_digits(json.loads(out), "1e-15") == _root_digits(default, "1e-15")

    @pytest.mark.parametrize("flags", [[], ["--complex"]])
    def test_window_violations_printed(self, monkeypatch, flags):
        real = roots_mod.real_coincidence_roots

        def planted(m, n, digits):
            rec = real(m, n, digits)
            return roots_mod.CoincidenceRecord(rec.m, rec.n, rec.roots, rec.max_abs_real, (0,))

        monkeypatch.setattr(roots_mod, "real_coincidence_roots", planted)
        code, out = run_cli(["roots", "3", "7", "--digits", "6", *flags])
        obj = json.loads(out)
        assert code == 0 and obj["window_violations"] == [0]
        assert obj["roots"][0]["kind"] == "real"
        assert len(obj["roots"]) == (4 if flags else 2)

    def test_convergence_failure_exits_one(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise roots_mod.RootConvergenceError("no separation")

        monkeypatch.setattr(complex_mod, "complex_roots", fail)
        code, out = run_cli(["roots", "1", "3", "--complex"])
        assert code == 1 and out == ""
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "no separation" in err[0]


class TestBang:
    def test_exception(self):
        assert run_cli(["bang", "2", "1", "6"]) == (0, "bang_2_6\n")

    def test_prime(self):
        assert run_cli(["bang", "2", "1", "4"]) == (0, "5\n")

    def test_bad_input(self):
        code, _ = run_cli(["bang", "4", "2", "3"])
        assert code == 2


class TestTable:
    def test_csv_shape_and_first_row(self):
        code, out = run_cli(["table1"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p,q,r,beta,alpha,inv_gap,scaled_gap"
        assert len(lines) == 11
        first = lines[1].split(",")
        assert first[:3] == ["3", "5", "7"]
        assert first[3] == "1.90040519768798"
        assert first[4] == "1.92756197548293"

    def test_json_rows_match_csv_rows(self):
        _, csv = run_cli(["table1"])
        _, js = run_cli(["table1", "--format", "json"])
        header, *rows = csv.splitlines()
        objs = [json.loads(line) for line in js.splitlines()]
        assert list(objs[0]) == header.split(",")
        assert [",".join(map(str, obj.values())) for obj in objs] == rows

    def test_extend_lists_every_triple(self):
        from cyclolab.nearmiss import find_triples

        code, out = run_cli(["table1", "--extend", "20"])
        assert code == 0
        header, *rows = out.splitlines()
        assert header == "p,q,r,beta,alpha,inv_gap,scaled_gap"
        want = [(p, q, r) for p in (3, 5, 7, 11, 13) for q, r in find_triples(p, 20)]
        assert [tuple(map(int, row.split(",")[:3])) for row in rows] == want
        assert len(want) == 13
        # every printed row has q <= 19, and reads the same in the extended table
        _, plain = run_cli(["table1"])
        assert set(plain.splitlines()) < set(out.splitlines())

    def test_extend_to_long_rows(self):
        # rows with q up to 59, whose gap alpha - beta cancels more digits
        # than a fixed working precision keeps, all render
        code, out = run_cli(["table1", "--extend", "60"])
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 34
        _, shorter = run_cli(["table1", "--extend", "40"])
        assert set(shorter.splitlines()[1:]) <= set(rows)

    @pytest.mark.parametrize("qmax", ["0", "2"])
    def test_extend_below_every_triple_lists_none(self, qmax):
        # no triple has q <= 2, so only the header is printed
        assert run_cli(["table1", "--extend", qmax]) == (0, "p,q,r,beta,alpha,inv_gap,scaled_gap\n")


class TestBounds:
    def test_grid_ok(self):
        code, out = run_cli(["bounds", "--n-max", "8", "--xs", "2,5/2"])
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert len(rows) == 16
        assert all(r["holds"] for r in rows)
        eq = [(r["n"], r["point"]) for r in rows if r["equality"]]
        assert eq == [(1, "2")]

    @pytest.mark.parametrize("xs", ["2,1", "3,5/2,3/2", "1"])
    def test_point_below_two_refused_before_any_row(self, capsys, xs):
        assert run_cli(["bounds", "--n-max", "3", "--xs", xs]) == (2, "")
        assert capsys.readouterr().err == "error: real bounds require x >= 2\n"


class TestVerifyRational:
    def test_small(self):
        code, out = run_cli(["verify-rational", "--height", "3", "--max-index", "8"])
        assert code == 0
        obj = json.loads(out)
        assert obj["integers"]["coincidences"] == [[2, 2, 6]]
        assert obj["fractions"]["coincidences"] == []

    @pytest.mark.parametrize("max_index", [2, 3, 4, 5])
    def test_box_without_index_six_holds(self, max_index):
        # Phi_2(2) = Phi_6(2) cannot be found below index 6, and nothing else is
        code, out = run_cli(["verify-rational", "--height", "5", "--max-index", str(max_index)])
        assert code == 0
        assert json.loads(out)["integers"] == {"a_max": 5, "coincidences": [], "holds": True}

    @pytest.mark.parametrize("max_index", [5, 8])
    def test_planted_integer_coincidence_fails(self, monkeypatch, max_index):
        from cyclolab import rationalcheck

        found = rationalcheck._point_coincidences

        def planted(a, b, M):
            return found(a, b, M) + ([(1, 3, 4)] if (a, b) == (3, 1) else [])

        monkeypatch.setattr(rationalcheck, "_point_coincidences", planted)
        code, out = run_cli(["verify-rational", "--height", "5", "--max-index", str(max_index)])
        assert code == 1
        integers = json.loads(out)["integers"]
        assert [3, 3, 4] in integers["coincidences"] and not integers["holds"]


class TestScan:
    def test_deterministic_across_jobs(self):
        _, out1 = run_cli(["scan", "--max-index", "8", "--jobs", "1", "--digits", "10"])
        _, out2 = run_cli(["scan", "--max-index", "8", "--jobs", "2", "--digits", "10"])
        assert out1 == out2

    def test_exit_zero_and_exception_flag(self):
        code, out = run_cli(["scan", "--max-index", "8", "--digits", "10"])
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["window_holds"] and summary["exception_found"]

    def test_real_scan_window_small(self):
        code, out = run_cli(["scan", "--max-index", "10", "--digits", "12", "--jobs", "2"])
        *pairs, summary = map(json.loads, out.strip().splitlines())
        assert code == 0 and summary["window_holds"]
        assert len(pairs) == 45 and not any(obj.get("window_violations") for obj in pairs)
        # nothing lives in (0, 1/2]; a tiny root rendered as zero would be a violation
        for obj in pairs:
            for root in obj["roots"]:
                assert not (0 < Fraction(root["value"]) <= Fraction(1, 2))
        assert Fraction(summary["max_nonzero_abs_root"]) < 2

    def test_resume_matches_fresh(self, tmp_path):
        argv = ["scan", "--max-index", "7", "--digits", "10"]
        fresh = _fresh_scan(tmp_path, argv)
        lines = fresh.splitlines(keepends=True)
        assert _resumed_scan(tmp_path, argv, "".join(lines[:5])) == fresh
        assert _resumed_scan(tmp_path, argv, fresh) == fresh

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan", "--max-index", "8", "--complex", "--coprime", "--digits", "10"],
            ["scan", "--max-index", "8", "--digits", "10", "--jobs", "2"],
            ["scan", "--max-index", "8", "--window-only"],
            ["scan", "--max-index", "12", "--window-only", "--jobs", "2"],
        ],
        ids=["complex-coprime", "jobs2", "window-only", "window-only-jobs2"],
    )
    def test_resume_matches_fresh_other_paths(self, tmp_path, argv):
        fresh = _fresh_scan(tmp_path, argv)
        lines = fresh.splitlines(keepends=True)
        assert _resumed_scan(tmp_path, argv, "".join(lines[:3])) == fresh

    def test_resume_from_torn_line(self, tmp_path):
        argv = ["scan", "--max-index", "7", "--digits", "10"]
        fresh = _fresh_scan(tmp_path, argv)
        lines = fresh.splitlines(keepends=True)
        head = "".join(lines[:5])
        assert _resumed_scan(tmp_path, argv, head + lines[5][:20]) == fresh
        assert _resumed_scan(tmp_path, argv, head + lines[5].rstrip("\n")) == fresh

    def test_resume_of_finished_scan_is_a_fold(self, tmp_path, monkeypatch):
        # the summary is folded from the merged lines: resuming a finished
        # file gives its bytes without any window work
        monkeypatch.delenv("CYCLOLAB_JOBS", raising=False)
        argv = ["scan", "--max-index", "12", "--digits", "10", "--jobs", "1"]
        fresh = _fresh_scan(tmp_path, argv)

        def no_window_work(m, n):
            raise AssertionError(f"window work for ({m}, {n})")

        monkeypatch.setattr(window_mod, "_pair_window", no_window_work)
        assert _resumed_scan(tmp_path, argv, fresh) == fresh

    def test_real_line_is_record_plus_window_counts(self):
        # each real line is the pair's record line, then exactly the
        # counts and at_two of its window-only line
        _, real = run_cli(["scan", "--max-index", "12", "--digits", "10"])
        _, window = run_cli(["scan", "--max-index", "12", "--window-only"])
        real, window = real.splitlines()[:-1], window.splitlines()[:-1]
        assert len(real) == len(window) == 66
        for line, wline in zip(real, window):
            obj, wobj = json.loads(line), json.loads(wline)
            extra = {k: obj.pop(k) for k in ("counts", "at_two") if k in obj}
            assert json.dumps(obj) == _record_line(roots_mod.real_coincidence_roots(obj["m"], obj["n"], 10), 10)
            assert {"m": obj["m"], "n": obj["n"], **extra} == wobj
            assert list(json.loads(line))[len(obj):] == list(extra)
        assert [(o["m"], o["n"]) for o in map(json.loads, real) if o.get("at_two")] == [(2, 6)]

    @pytest.mark.parametrize(
        "argv",
        [
            ["--max-index", "36", "--digits", "10", "--jobs", "2"],
            ["--max-index", "16", "--complex", "--coprime", "--digits", "10", "--jobs", "1"],
        ],
        ids=["real-jobs2", "complex-jobs1"],
    )
    def test_resume_after_sigterm(self, tmp_path, argv):
        argv = ["scan", *argv]
        out = tmp_path / "killed.jsonl"
        err = tmp_path / "killed.err"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cyclolab.__file__)))
        with open(err, "w") as err_fh:
            proc = subprocess.Popen(
                [sys.executable, "-m", "cyclolab", *argv, "--out", str(out)],
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=err_fh,
                start_new_session=True,
            )
        try:
            deadline = time.monotonic() + 60
            while not out.exists() or out.read_text().count("\n") < 20:
                assert proc.poll() is None, "scan ended before 20 pair lines"
                assert time.monotonic() < deadline
                time.sleep(0.005)
            assert proc.poll() is None, "scan finished before it could be killed"
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == -signal.SIGTERM
            # a pool worker that outlived the parent would write its traceback
            # when it next sends a result; give it the time to do so
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline and _group_alive(proc.pid):
                time.sleep(0.05)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)  # pool workers left behind
            except ProcessLookupError:
                pass
        assert "Traceback" not in err.read_text()
        killed = out.read_text()
        assert killed.count("\n") >= 20 and '"summary"' not in killed
        code, _ = run_cli([*argv, "--out", str(out), "--resume"])
        assert code == 0
        assert out.read_text() == _fresh_scan(tmp_path, argv)

    def test_resume_requires_out(self):
        code, _ = run_cli(["scan", "--max-index", "6", "--resume"])
        assert code == 2

    def test_complex_scan_summary(self):
        code, out = run_cli(["scan", "--max-index", "5", "--complex", "--digits", "10"])
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["boundary_upper"] == [[1, 3], [1, 4], [1, 5]]
        assert summary["outside"] == []

    @pytest.mark.parametrize("digits", ["80", "200"])
    def test_complex_scan_at_high_digits(self, digits):
        argv = ["scan", "--max-index", "8", "--complex", "--coprime", "--jobs", "1"]
        code, out = run_cli([*argv, "--digits", digits])
        assert code == 0
        default = run_cli(argv)[1].splitlines()
        lines = out.splitlines()
        assert lines[-1] == default[-1]  # the summary
        assert [_root_digits(json.loads(line), "1e-15") for line in lines[:-1]] == [
            _root_digits(json.loads(line), "1e-15") for line in default[:-1]
        ]

    def test_coprime_requires_complex(self, capsys):
        for argv in (["--coprime"], ["--coprime", "--window-only"]):
            assert run_cli(["scan", "--max-index", "10", *argv]) == (2, "")
            assert capsys.readouterr().err == "error: scan --coprime requires --complex\n"


class TestWindowOnlyScan:
    @pytest.mark.parametrize(
        "kind, M",
        [pytest.param("window", M, id=str(M)) for M in (8, 40, 72)]
        + [pytest.param("real", M, id=f"real-{M}") for M in (8, 40)],
    )
    def test_summary_matches_library(self, kind, M):
        # the real scan folds the same per-pair counts into the same verdict
        code, out = run_cli(["scan", *_KIND_ARGV[kind], "--max-index", str(M), "--jobs", "1"])
        *pairs, summary = map(json.loads, out.strip().splitlines())
        report = roots_mod.verify_root_window(M, jobs=1)
        assert code == 0 and report.holds and report.exception_found
        assert len(pairs) == report.pairs_checked == M * (M - 1) // 2
        extremes = {k: summary.pop(k) for k in ("max_nonzero_abs_root", "min_nonzero_abs_root") if k in summary}
        assert bool(extremes) == (kind == "real")
        assert summary == {
            "summary": kind,
            "max_index": M,
            "pairs_checked": report.pairs_checked,
            "window_holds": True,
            "exception_found": True,
            "violations": [],
        }
        windows = [{k: p[k] for k in ("m", "n", "counts", "at_two") if k in p} for p in pairs]
        assert [p for p in windows if p != {"m": p["m"], "n": p["n"], "counts": [0, 0, 0, 0]}] == [
            {"m": 2, "n": 6, "counts": [0, 0, 0, 1], "at_two": True}
        ]

    def test_keys_are_the_real_summary_window_keys(self):
        _, real = run_cli(["scan", "--max-index", "8", "--digits", "10"])
        _, window = run_cli(["scan", "--max-index", "8", "--window-only"])
        real, window = json.loads(real.splitlines()[-1]), json.loads(window.splitlines()[-1])
        assert set(real) - set(window) == {"max_nonzero_abs_root", "min_nonzero_abs_root"}
        assert list(window) == [k for k in real if k in window]
        assert {**window, "summary": "real"} == {k: real[k] for k in window}

    def test_same_bytes_across_jobs(self):
        _, out1 = run_cli(["scan", "--window-only", "--max-index", "20", "--jobs", "1"])
        _, out2 = run_cli(["scan", "--window-only", "--max-index", "20", "--jobs", "2"])
        assert out1 == out2

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_resume_from_torn_line(self, tmp_path, jobs):
        argv = ["scan", "--window-only", "--max-index", "12", "--jobs", jobs]
        fresh = _fresh_scan(tmp_path, argv)
        lines = fresh.splitlines(keepends=True)
        head = "".join(lines[:5])  # the header and four pairs
        assert _resumed_scan(tmp_path, argv, head + lines[5][:20]) == fresh
        assert _resumed_scan(tmp_path, argv, head + lines[5].rstrip("\n")) == fresh
        assert _resumed_scan(tmp_path, argv, lines[0]) == fresh

    @pytest.mark.parametrize("kind", ["window", "real"])
    def test_violation_exits_one(self, monkeypatch, kind):
        # a count outside the window is reported, as the library reports it
        monkeypatch.delenv("CYCLOLAB_JOBS", raising=False)
        monkeypatch.setattr(
            window_mod, "_pair_window", lambda m, n: ((0, 1, 0, 0) if (m, n) == (3, 5) else (0, 0, 0, 0), False, 0)
        )
        code, out = run_cli(["scan", *_KIND_ARGV[kind], "--max-index", "6", "--jobs", "1"])
        summary = json.loads(out.splitlines()[-1])
        assert code == 1
        assert summary["violations"] == [[3, 5, "[-1/2,0)", 1]]
        assert not summary["window_holds"] and not summary["exception_found"]

    def test_excludes_complex(self, capsys):
        assert run_cli(["scan", "--max-index", "6", "--window-only", "--complex"]) == (2, "")
        assert "not allowed with argument" in capsys.readouterr().err


_KIND_ARGV = {
    "real": ["--digits", "10"],
    "complex": ["--complex", "--digits", "10"],
    "window": ["--window-only", "--digits", "10"],
}


class TestScanCache:
    def _refused(self, capsys, path, argv, why):
        # exit 2, one error line, and the file's bytes untouched
        before = path.read_bytes()
        capsys.readouterr()
        assert run_cli(["scan", *argv, "--out", str(path), "--resume"]) == (2, "")
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {path} ") and why in err, err
        assert path.read_bytes() == before

    @pytest.mark.parametrize(
        "written, resumed", [(w, r) for w in _KIND_ARGV for r in _KIND_ARGV if w != r]
    )
    def test_foreign_kind_refused(self, tmp_path, capsys, written, resumed):
        path = tmp_path / "scan.jsonl"
        assert run_cli(["scan", "--max-index", "6", *_KIND_ARGV[written], "--out", str(path)])[0] == 0
        self._refused(capsys, path, ["--max-index", "6", *_KIND_ARGV[resumed]], "kind")

    @pytest.mark.parametrize("kind", list(_KIND_ARGV))
    def test_digits_mismatch_refused(self, tmp_path, capsys, kind):
        path = tmp_path / "scan.jsonl"
        assert run_cli(["scan", "--max-index", "6", *_KIND_ARGV[kind], "--out", str(path)])[0] == 0
        self._refused(capsys, path, ["--max-index", "6", *_KIND_ARGV[kind], "--digits", "12"], "digits")

    @pytest.mark.parametrize("kind", list(_KIND_ARGV))
    def test_headerless_refused(self, tmp_path, capsys, kind):
        argv = ["scan", "--max-index", "6", *_KIND_ARGV[kind]]
        path = tmp_path / "scan.jsonl"
        path.write_text("".join(_fresh_scan(tmp_path, argv).splitlines(keepends=True)[1:4]))
        self._refused(capsys, path, argv[1:], "no scan header")
        path.write_text("not json\n")
        self._refused(capsys, path, argv[1:], "no scan header")

    @pytest.mark.parametrize("kind", list(_KIND_ARGV))
    def test_format_one_refused(self, tmp_path, capsys, kind):
        # real lines of format 1 carry no window counts, so no format-1 file is resumed
        argv = ["scan", "--max-index", "6", *_KIND_ARGV[kind]]
        header, *lines = _fresh_scan(tmp_path, argv).splitlines(keepends=True)
        path = tmp_path / "scan.jsonl"
        path.write_text(json.dumps({**json.loads(header), "scan_format": 1}) + "\n" + "".join(lines[:3]))
        self._refused(capsys, path, argv[1:], "scan_format")

    def test_header_leads_only_files(self, tmp_path):
        argv = ["scan", "--max-index", "6", "--complex", "--coprime", "--digits", "10"]
        header, *lines = _fresh_scan(tmp_path, argv).splitlines()
        assert json.loads(header) == {"scan_format": 2, "kind": "complex", "max_index": 6, "coprime": True, "digits": 10}
        assert run_cli(argv)[1].splitlines() == lines

    def test_pair_selection_may_differ(self, tmp_path):
        # max_index and coprime only select pairs: a smaller scan's file
        # completes a larger one, and an empty file is no cache at all
        small = _fresh_scan(tmp_path, ["scan", "--max-index", "6", "--window-only"])
        argv = ["scan", "--max-index", "9", "--window-only"]
        assert _resumed_scan(tmp_path, argv, small) == _fresh_scan(tmp_path, argv)
        assert _resumed_scan(tmp_path, argv, "") == _fresh_scan(tmp_path, argv)

    @pytest.mark.parametrize("target, resume", [("dir", False), ("missing", False), ("dir", True)])
    def test_out_that_cannot_be_opened(self, tmp_path, capsys, monkeypatch, target, resume):
        # one error line and exit 2, before any pair is computed
        calls = []
        monkeypatch.setattr(roots_mod, "_parallel_map", lambda *a: calls.append(a) or iter(()))
        path = tmp_path if target == "dir" else tmp_path / "missing" / "f.jsonl"
        capsys.readouterr()
        assert run_cli(["scan", "--max-index", "3", "--out", str(path)] + ["--resume"] * resume) == (2, "")
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: cannot open {path}: "), err
        assert calls == []

    def test_real_resume_over_complex_file_has_no_traceback(self, tmp_path):
        out = tmp_path / "f.jsonl"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cyclolab.__file__)))
        run = [sys.executable, "-m", "cyclolab", "scan", "--max-index", "6", "--out", str(out)]
        subprocess.run(run + ["--complex"], env=env, check=True, timeout=120)
        proc = subprocess.run(run + ["--resume"], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ")


def test_readme_cli_lines_parse():
    # every example in the README's CLI block is a valid command line
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("cyclolab ")]
    assert len(lines) >= 18 and any("--window-only" in line for line in lines)
    for line in lines:
        _build_parser().parse_args(shlex.split(line, comments=True)[1:])


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def _fresh_scan(tmp_path, argv) -> str:
    full = tmp_path / "full.jsonl"
    code, out = run_cli(argv + ["--out", str(full)])
    assert code == 0 and out == ""
    return full.read_text()


def _resumed_scan(tmp_path, argv, cache: str) -> str:
    part = tmp_path / "part.jsonl"
    part.write_text(cache)
    code, _ = run_cli(argv + ["--out", str(part), "--resume"])
    assert code == 0
    return part.read_text()


class TestUsage:
    def test_unknown_command(self):
        code, _ = run_cli(["frobnicate"])
        assert code == 2

    def test_no_command(self):
        code, _ = run_cli([])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [["roots", "1", "2"], ["roots", "3", "5"], ["scan", "--max-index", "4"], ["nearmiss", "--p", "3", "--qmax", "7"],
         ["table1"]],
        ids=["roots-1-2", "roots-3-5", "scan", "nearmiss", "table1"],
    )
    @pytest.mark.parametrize("digits", ["0", "-1"])
    def test_digits_below_one_refused(self, capsys, argv, digits):
        assert run_cli([*argv, "--digits", digits]) == (2, "")
        assert capsys.readouterr().err == "error: digits must be >= 1\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["bounds", "--n-max", "0", "--xs", "2"], "bounds requires --n-max >= 1"),
            (["bounds", "--n-max", "-4", "--xs", "2"], "bounds requires --n-max >= 1"),
            (["verify-rational", "--height", "1", "--max-index", "5"], "verify-rational requires --height >= 2"),
            (["verify-rational", "--height", "5", "--max-index", "1"], "verify-rational requires --max-index >= 2"),
            (["scan", "--max-index", "1"], "scan requires --max-index >= 2"),
        ],
        ids=["n-max-0", "n-max-negative", "height-1", "max-index-1", "scan-max-index-1"],
    )
    def test_flag_that_checks_nothing_refused(self, capsys, argv, message):
        # a verification verb that would check nothing must not exit 0
        assert run_cli(argv) == (2, "")
        assert capsys.readouterr().err == f"error: {message}\n"


_COLD_START = """
import io
import sys

import cyclolab
from cyclolab import polycore, roots
from cyclolab.cli import dispatch


def heavy():
    names = ("cyclolab.binfloat", "dataclasses", "inspect", "mpmath", "multiprocessing", "numpy")
    return sorted(m for m in names if m in sys.modules)


assert heavy() == [], ("import", heavy())
assert dispatch(["eval", "30030", "3/2"]) == 0
assert heavy() == [], ("eval", heavy())
roots.window_counts(6, 10)
roots.real_coincidence_roots(6, 10, 15)
assert dispatch(["scan", "--max-index", "12", "--jobs", "1"], io.StringIO()) == 0
assert heavy() == [], ("real", heavy())
recs = roots.complex_roots(polycore.difference(3, 7))
assert len(recs) == 4 and heavy() == ["cyclolab.binfloat", "inspect", "numpy"], ("complex", heavy())
"""


def test_cold_start_loads_numpy_only_for_complex_roots():
    # mpmath is never loaded, and multiprocessing only by a parallel scan
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cyclolab.__file__)))
    proc = subprocess.run([sys.executable, "-c", _COLD_START], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv", [["table1"], ["scan", "--max-index", "30", "--jobs", "2"]], ids=["table1", "scan-jobs2"]
)
def test_closed_stdout_ends_quietly(tmp_path, argv):
    # the reader takes one line and closes the pipe, as `| head -1` does:
    # exit 128 + SIGPIPE, nothing on stderr, no pool worker left running.
    # Unbuffered, each line reaches the pipe as it is written
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cyclolab.__file__)), PYTHONUNBUFFERED="1")
    err = tmp_path / "err"
    with open(err, "w") as err_fh:
        proc = subprocess.Popen(
            [sys.executable, "-m", "cyclolab", *argv],
            env=env,
            stdout=subprocess.PIPE,
            stderr=err_fh,
            start_new_session=True,
        )
    try:
        assert proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline and _group_alive(proc.pid):
            time.sleep(0.05)
        assert not _group_alive(proc.pid), "a pool worker outlived the parent"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    assert err.read_text() == ""


class TestJobsEnv:
    def test_env_overrides(self, monkeypatch):
        from cyclolab.roots import effective_jobs

        monkeypatch.setenv("CYCLOLAB_JOBS", "3")
        assert effective_jobs(1) == 3
        monkeypatch.delenv("CYCLOLAB_JOBS")
        assert effective_jobs(4) == 4
        assert effective_jobs(None) >= 1

    @pytest.mark.parametrize("value", ["abc", "1.5", "0", "-3"])
    def test_bad_env_refused(self, monkeypatch, capsys, tmp_path, value):
        # refused like --jobs 0: exit 2, one error line naming the
        # variable, and --out is not touched
        out = tmp_path / "scan.jsonl"
        out.write_text("kept\n")
        monkeypatch.setenv("CYCLOLAB_JOBS", value)
        assert run_cli(["scan", "--max-index", "4", "--out", str(out)]) == (2, "")
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: CYCLOLAB_JOBS "), err
        assert out.read_text() == "kept\n"
        with pytest.raises(ValueError, match="CYCLOLAB_JOBS"):
            roots_mod.verify_root_window(4, jobs=1)

    def test_jobs_zero_refused(self, capsys):
        assert run_cli(["scan", "--max-index", "4", "--jobs", "0"]) == (2, "")
        assert capsys.readouterr().err == "error: jobs must be >= 1\n"

    @pytest.mark.parametrize(
        "jobs, env, cpus, items, pool",
        [
            (5000, None, 2, 20, 2),
            (None, "5000", 2, 20, 2),
            (5000, None, 64, 9, 9),
            (3, None, 64, 20, 3),
            (2, None, 1, 20, None),
            (4, None, 4, 7, None),
        ],
    )
    def test_pool_capped(self, monkeypatch, jobs, env, cpus, items, pool):
        # the pool is min(jobs, items, usable CPUs) workers; a fake fork
        # context records the size asked for and maps in-process
        import multiprocessing

        sizes = []

        class Pool:
            def __init__(self, processes, initializer=None, initargs=()):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, it, chunksize=1):
                return map(fn, it)

        monkeypatch.setattr(multiprocessing, "get_context", lambda method: type("Ctx", (), {"Pool": Pool}))
        monkeypatch.setattr(roots_mod, "_usable_cpus", lambda: cpus)
        if env is None:
            monkeypatch.delenv("CYCLOLAB_JOBS", raising=False)
        else:
            monkeypatch.setenv("CYCLOLAB_JOBS", env)
        assert list(roots_mod._parallel_map(abs, range(-items, 0), jobs)) == list(range(items, 0, -1))
        assert sizes == ([pool] if pool else [])

    def test_usable_cpus(self):
        assert 1 <= roots_mod._usable_cpus() <= (os.cpu_count() or 1)

    @pytest.mark.parametrize("env", [None, "2"])
    @pytest.mark.parametrize("jobs", [0, -4])
    def test_library_jobs_below_one_refused(self, monkeypatch, env, jobs):
        # refused like --jobs 0, whether or not CYCLOLAB_JOBS would override it
        if env is None:
            monkeypatch.delenv("CYCLOLAB_JOBS", raising=False)
        else:
            monkeypatch.setenv("CYCLOLAB_JOBS", env)
        with pytest.raises(ValueError, match="^jobs must be >= 1$"):
            roots_mod.verify_root_window(5, jobs=jobs)
        with pytest.raises(ValueError, match="^jobs must be >= 1$"):
            roots_mod.scan_complex(5, jobs=jobs)
