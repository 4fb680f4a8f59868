"""Command-line interface: verify suites, bench CSV contract, report parsing."""

import csv
import shutil
import subprocess
import sys

import pytest

from sixjconv import bench_cli
from sixjconv.bench_cli import CSV_FIELDS, main

SUITES = ("angular", "harmonics", "recoupling", "binomial",
          "equivalence", "equivariance", "geometry")


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# -- verify --------------------------------------------------------------------


def test_verify_runs_all_suites(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == len(SUITES)
    for name in SUITES:
        assert any(ln.startswith(name) and ln.rstrip().endswith("PASS")
                   for ln in lines)


def test_verify_selected_suite_only(capsys):
    assert main(["verify", "--suite", "geometry"]) == 0
    out = capsys.readouterr().out
    assert "geometry" in out
    assert "angular" not in out


def test_verify_equivalence_flags(capsys):
    assert main(["verify", "--suite", "equivalence",
                 "--n", "8", "--k", "2", "--lmax", "1", "--seed", "3"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_unknown_suite_exits_2(capsys):
    assert main(["verify", "--suite", "nonsense"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_verify_detects_corrupted_6j(capsys):
    """Negative control: biased 6j values must fail exactly the suites
    that consume them, and the patch must not leak into later runs."""
    assert main(["verify", "--corrupt-6j"]) == 1
    out = capsys.readouterr().out
    status = {}
    for ln in out.splitlines():
        if ln.strip():
            parts = ln.split()
            status[parts[0]] = parts[1]
    assert status["recoupling"] == "FAIL"
    assert status["equivalence"] == "FAIL"
    assert status["harmonics"] == "PASS"
    assert status["geometry"] == "PASS"
    # the corruption is strictly scoped to that one invocation
    assert main(["verify", "--suite", "recoupling"]) == 0


# -- bench ---------------------------------------------------------------------


def test_bench_csv_schema(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--mode", "both", "--n", "8,12", "--k", "2,dense",
                 "--lmax", "1..2", "--channels", "2", "--repeats", "1",
                 "--warmups", "0", "--seed", "5", "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert rows[0] == list(CSV_FIELDS)
    body = rows[1:]
    assert len(body) == 2 * 2 * 2 * 2  # n values x k values x lmax values x modes
    for rec in body:
        mode, n, k, lmax, ch, reps, med, tp, add, seed = rec
        assert mode in ("edge", "node")
        assert int(n) in (8, 12)
        assert k in ("2", "dense")
        assert int(lmax) in (1, 2)
        assert (int(ch), int(reps), int(seed)) == (2, 1, 5)
        assert float(med) >= 0.0
        assert int(tp) > 0 and int(add) > 0
    # node tp_count must not move with k at fixed (n, lmax)
    node_tp = {}
    for rec in body:
        if rec[0] == "node":
            node_tp.setdefault((rec[1], rec[3]), set()).add(rec[7])
    assert all(len(v) == 1 for v in node_tp.values())


def test_bench_range_and_default_output(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert main(["bench", "--mode", "node", "--n", "6..8", "--k", "2",
                 "--lmax", "1", "--channels", "1", "--repeats", "1",
                 "--warmups", "0", "--out", str(out)]) == 0
    body = _read_csv(out)[1:]
    assert sorted(int(r[1]) for r in body) == [6, 7, 8]


def test_bench_rejects_bad_arguments(tmp_path, capsys):
    assert main(["bench", "--repeats", "0", "--out", str(tmp_path / "x.csv")]) == 2
    assert "repeats" in capsys.readouterr().err
    assert main(["bench", "--k", "fast", "--out", str(tmp_path / "x.csv")]) == 2
    assert "--k" in capsys.readouterr().err
    assert main(["bench", "--n", "9..4", "--out", str(tmp_path / "x.csv")]) == 2
    assert "argument error" in capsys.readouterr().err
    assert main(["bench", "--n", "abc", "--out", str(tmp_path / "x.csv")]) == 2
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["bench", "--mode", "sideways"])


def test_bench_rejects_nonpositive_sizes(tmp_path, capsys):
    # validation must fire before the CSV header is written
    out = str(tmp_path / "x.csv")
    assert main(["bench", "--n", "0", "--out", out]) == 2
    assert "--n values must be >= 1" in capsys.readouterr().err
    assert main(["bench", "--n", "0..4", "--out", out]) == 2
    capsys.readouterr()
    assert main(["bench", "--channels", "0", "--out", out]) == 2
    assert "--channels" in capsys.readouterr().err
    assert main(["bench", "--seed", "-1", "--out", out]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


# -- report --------------------------------------------------------------------


def _bench_csv(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--mode", "both", "--n", "8,16", "--k", "dense",
                 "--lmax", "1", "--channels", "2", "--repeats", "1",
                 "--warmups", "0", "--out", str(out)]) == 0
    return out


def test_report_prints_slopes_and_speedups(tmp_path, capsys):
    path = _bench_csv(tmp_path)
    capsys.readouterr()
    assert main(["report", str(path)]) == 0
    out = capsys.readouterr().out
    slope_lines = [ln for ln in out.splitlines() if "slope" in ln]
    assert any(ln.startswith("mode=edge") for ln in slope_lines)
    assert any(ln.startswith("mode=node") for ln in slope_lines)
    speedups = [ln for ln in out.splitlines() if ln.startswith("speedup")]
    assert len(speedups) == 2  # one per shared n
    assert all("edge[k=dense] / node[k=dense]" in ln and ln.endswith("x")
               for ln in speedups)


def test_report_single_point_has_no_fit(tmp_path, capsys):
    out = tmp_path / "one.csv"
    assert main(["bench", "--mode", "node", "--n", "8", "--k", "2",
                 "--lmax", "1", "--channels", "1", "--repeats", "1",
                 "--warmups", "0", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["report", str(out)]) == 0
    assert "no slope fit" in capsys.readouterr().out


def test_report_rejects_wrong_header(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    assert main(["report", str(bad)]) == 2
    assert "parse error at line 1" in capsys.readouterr().err


def test_report_rejects_short_row_with_line_number(tmp_path, capsys):
    bad = tmp_path / "short.csv"
    bad.write_text(",".join(CSV_FIELDS) + "\n"
                   + "node,8,2,1,1,1,1.0e-3,10,10,0\n"
                   + "node,8,2\n")
    assert main(["report", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "parse error at line 3" in err
    assert f"expected {len(CSV_FIELDS)} fields, got 3" in err


def test_report_rejects_bad_numeric_field(tmp_path, capsys):
    bad = tmp_path / "nan.csv"
    bad.write_text(",".join(CSV_FIELDS) + "\n"
                   + "node,8,2,1,1,1,quick,10,10,0\n")
    assert main(["report", str(bad)]) == 2
    assert "bad numeric field" in capsys.readouterr().err


def test_report_skips_error_rows_but_continues(tmp_path, capsys):
    path = tmp_path / "err.csv"
    path.write_text(",".join(CSV_FIELDS) + "\n"
                    + "node,8,2,1,1,1,1.0e-3,10,10,0\n"
                    + "edge,8,dense,1,1,1,ERROR,,,0\n"
                    + "node,16,2,1,1,1,2.0e-3,20,20,0\n")
    assert main(["report", str(path)]) == 0
    captured = capsys.readouterr()
    assert "skipping ERROR row at line 3" in captured.err
    assert "slope" in captured.out


def test_report_missing_file_exits_2(tmp_path, capsys):
    assert main(["report", str(tmp_path / "absent.csv")]) == 2
    assert "cannot open" in capsys.readouterr().err


# -- process-level behavior ------------------------------------------------------


def _module_cmd(*args):
    return [sys.executable, "-m", "sixjconv.bench_cli", *args]


def test_threads_flag_smoke(tmp_path):
    out = tmp_path / "t.csv"
    res = subprocess.run(
        _module_cmd("bench", "--mode", "node", "--n", "8", "--k", "2",
                    "--lmax", "1", "--channels", "1", "--repeats", "1",
                    "--warmups", "0", "--threads", "2", "--out", str(out)),
        capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert out.exists()


@pytest.mark.skipif(shutil.which("sixjconv") is None,
                    reason="console script not on PATH")
def test_console_script_runs():
    res = subprocess.run(["sixjconv", "verify", "--suite", "geometry"],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert "PASS" in res.stdout
