import io
import json
import os
import signal
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import cyclolab
from cyclolab import roots as roots_mod
from cyclolab.cli import dispatch


def run_cli(argv):
    out = io.StringIO()
    code = dispatch(argv, out)
    return code, out.getvalue()


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

    def test_convergence_failure_exits_one(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise roots_mod.RootConvergenceError("no separation")

        monkeypatch.setattr(roots_mod, "complex_roots", fail)
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


class TestBounds:
    def test_grid_ok(self):
        code, out = run_cli(["bounds", "--n-max", "8", "--xs", "2,5/2"])
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert len(rows) == 16
        assert all(r["holds"] for r in rows)
        eq = [(r["n"], r["point"]) for r in rows if r["equality"]]
        assert eq == [(1, "2")]


class TestVerifyRational:
    def test_small(self):
        code, out = run_cli(["verify-rational", "--height", "3", "--max-index", "8"])
        assert code == 0
        obj = json.loads(out)
        assert obj["integers"]["coincidences"] == [[2, 2, 6]]
        assert obj["fractions"]["coincidences"] == []


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
        ],
        ids=["complex-coprime", "jobs2"],
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


_COLD_START = """
import io
import sys

import cyclolab
from cyclolab import polycore, roots
from cyclolab.cli import dispatch


def heavy():
    return sorted(m for m in ("mpmath", "multiprocessing", "numpy") if m in sys.modules)


assert heavy() == [], ("import", heavy())
assert dispatch(["eval", "30030", "3/2"]) == 0
assert heavy() == [], ("eval", heavy())
roots.window_counts(6, 10)
roots.real_coincidence_roots(6, 10, 15)
assert dispatch(["scan", "--max-index", "12", "--jobs", "1"], io.StringIO()) == 0
assert heavy() == [], ("real", heavy())
recs = roots.complex_roots(polycore.difference(3, 7))
assert len(recs) == 4 and heavy() == ["numpy"], ("complex", heavy())
"""


def test_cold_start_loads_numpy_only_for_complex_roots():
    # mpmath is never loaded, and multiprocessing only by a parallel scan
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cyclolab.__file__)))
    proc = subprocess.run([sys.executable, "-c", _COLD_START], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


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
