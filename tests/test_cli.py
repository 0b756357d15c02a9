"""Command-line surface: parsing, output formats, exit codes."""
import csv
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import mbzeta
from mbzeta.cli import main, parse_args
from mbzeta.errors import UsageError


# ---------------------------------------------------------------- parsing

def test_parse_eval():
    cmd = parse_args(["eval", "zeta", "--s", "2,0"])
    assert cmd.subcommand == "eval"
    assert cmd.params["func"] == "zeta"
    assert cmd.params["s"] == complex(2.0, 0.0)
    assert cmd.format == "text"


def test_parse_verify_flags():
    cmd = parse_args(["verify", "--config", "suite.json", "--format", "json"])
    assert cmd.subcommand == "verify"
    assert cmd.params["config"] == "suite.json"
    assert cmd.format == "json"


def test_parse_verify_default_format_is_json():
    assert parse_args(["verify"]).format == "json"


def test_parse_rejects_inadmissible_abscissa():
    with pytest.raises(UsageError) as info:
        parse_args(["integrate", "--family", "zetazeta", "--s", "4", "--c", "0.5"])
    msg = str(info.value)
    assert "c > 1" in msg and "c=0.5" in msg and "Re(s)=4.0" in msg


def test_parse_rejects_malformed_complex():
    with pytest.raises(UsageError):
        parse_args(["eval", "zeta", "--s", "two"])
    with pytest.raises(UsageError):
        parse_args(["eval", "zeta", "--s", "1,2,3"])
    with pytest.raises(UsageError):
        parse_args(["eval", "zeta", "--s", "nan,0"])


def test_parse_family_aliases():
    for alias in ("gammapower", "gamma_power"):
        cmd = parse_args(["integrate", "--family", alias, "--s", "3",
                          "--u", "0.5", "--c", "1.2"])
        assert cmd.params["family"].tag == "gamma_power"
    with pytest.raises(UsageError):
        parse_args(["integrate", "--family", "mystery", "--s", "3", "--c", "1.2"])
    with pytest.raises(UsageError):  # gamma_power needs u
        parse_args(["integrate", "--family", "gammapower", "--s", "3",
                    "--c", "1.2"])


def test_parse_rejects_bad_tolerances():
    with pytest.raises(UsageError):
        parse_args(["integrate", "--family", "zetazeta", "--s", "4",
                    "--c", "1.5", "--tol", "0"])
    with pytest.raises(UsageError):
        parse_args(["rect", "--family", "zetazeta", "--s", "4", "--right",
                    "1.5", "--left", "-4.5", "--T", "30", "--tol", "-1"])


# ---------------------------------------------------------------- execution

def test_eval_zeta_reference_line(capsys):
    assert main(["eval", "zeta", "--s", "2,0"]) == 0
    assert capsys.readouterr().out.strip() == "1.6449340668 (±1e-10)"


def test_eval_bernoulli_exact(capsys):
    assert main(["eval", "bernoulli", "--n", "12"]) == 0
    assert capsys.readouterr().out.strip() == "-691/2730"


def test_eval_json(capsys):
    assert main(["eval", "gamma", "--s", "0.5", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["value_re"] - 1.7724538509055159) < 1e-10
    assert doc["value_im"] == 0.0
    assert doc["accuracy"] == 1e-10


def test_integrate_reference_line(capsys):
    assert main(["integrate", "--family", "zetazeta", "--s", "4",
                 "--c", "1.5"]) == 0
    out = capsys.readouterr().out
    assert "value = 0.7184020167" in out
    assert "err_estimate" in out and "tail_bound" in out and "evaluations" in out


def test_integrate_improper_family(capsys):
    assert main(["integrate", "--family", "real_axis", "--s", "3"]) == 0
    assert "value = 0.8857543274" in capsys.readouterr().out


def test_integrate_passes_tol_through(capsys):
    # 1e-16 is below the line's rounding floor: the CLI must not loosen it
    assert main(["integrate", "--family", "zetazeta", "--s", "4", "--c", "1.5",
                 "--tol", "1e-16"]) == 1
    assert capsys.readouterr().err.startswith("ToleranceUnreachable: ")


def test_rect_match_line(capsys):
    # rectangle enclosing only the pole at 1: both sides equal 2 zeta(3)
    assert main(["rect", "--family", "zetazeta", "--s", "4,0", "--right", "1.5",
                 "--left", "0.5", "--T", "10"]) == 0
    out = capsys.readouterr().out
    assert "contour = 2.4041138063" in out
    assert "residues = 2.4041138063" in out
    assert "match=true" in out


def test_rect_full_pole_set(capsys):
    assert main(["rect", "--family", "zetazeta", "--s", "4", "--right", "1.5",
                 "--left", "-4.5", "--T", "30"]) == 0
    out = capsys.readouterr().out
    # 2 zeta(3) - 3 zeta(4) + 2 zeta(5) - zeta(7)
    assert "contour = 0.2226503381" in out
    assert "match=true" in out


def test_rect_impossible_tolerance_exits_one(capsys):
    code = main(["rect", "--family", "zetazeta", "--s", "4", "--right", "1.5",
                 "--left", "-4.5", "--T", "30", "--tol", "1e-30"])
    assert code == 1
    assert "match=false" in capsys.readouterr().out


@pytest.mark.parametrize("argv, error", [
    (["--family", "gammapower", "--u", "0.5", "--s", "3", "--right", "4.5",
      "--left", "-0.5"], "DomainViolation"),
    (["--family", "zetazeta", "--s", "4", "--right", "3.5", "--left", "1.5"],
     "DomainViolation"),
    (["--family", "zetazeta", "--s", "4", "--right", "3", "--left", "1.5"],
     "PoleOnPath"),
], ids=["encloses-gamma-s", "encloses-zeta-s-1", "edge-through-zeta-s-1"])
def test_rect_reaching_a_right_field_pole_exits_one(capsys, argv, error):
    # the residue sums cover the left pole field only
    assert main(["rect", *argv, "--T", "2"]) == 1
    assert capsys.readouterr().err.startswith(f"{error}: ")


def test_residues_lists_all_kinds(capsys):
    assert main(["residues", "--family", "zetazeta", "--s", "4",
                 "--min", "-5", "--max", "1"]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 5  # poles at -5, -3, -1, 0, 1 (evens are regular)
    assert "n=+1 kind=ZetaPole residue=2.4041138063" in lines
    assert "n=+0 kind=GammaPole residue=-3.2469697011" in lines
    assert "n=-1 kind=OddCombined residue=2.0738555103" in lines
    assert "n=-3 kind=OddCombined residue=-1.0083492774" in lines


def test_residues_refuses_overflowing_residues_before_listing(tmp_path):
    # every residue below n = -167 overflows binary64; the range's 3e8 poles
    # are never listed, which a 1 GiB address space would not hold
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "mbzeta.cli", "residues", "--family",
         "gammapower", "--s", "3", "--u", "0.5", "--min", "-300000000",
         "--max", "0"],
        capture_output=True, text=True, env=_module_env(), cwd=tmp_path,
        timeout=120, preexec_fn=cap_memory)
    assert proc.returncode == 1
    assert proc.stderr.startswith("OverflowRegime: ")


def test_residues_json(capsys):
    assert main(["residues", "--family", "gammapower", "--s", "3", "--u", "0.5",
                 "--min", "-3", "--max", "0", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [row["position"] for row in doc] == [-3, -2, -1, 0]
    assert all(row["kind"] == "GammaPole" for row in doc)
    assert abs(doc[-1]["residue_re"] - 2.0) < 1e-12


def test_tail_reference_rows(capsys):
    assert main(["tail", "--s", "4", "--M", "5"]) == 0
    out = capsys.readouterr().out
    assert "m= 0 |t_m|=2.0738555103e+00" in out
    assert "m= 1 |t_m|=1.0083492774e+00" in out
    assert "m= 2 |t_m|=1.3360111904e+00" in out
    assert "min_index=1" in out
    assert "growth_onset=1" in out


def test_verify_default_battery(capsys):
    assert main(["verify"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"version", "environment", "entries", "overall_pass"}
    assert doc["overall_pass"] is True
    assert len(doc["entries"]) >= 25
    for entry in doc["entries"]:
        assert set(entry) >= {"id", "lhs_re", "lhs_im", "rhs_re", "rhs_im",
                              "abs_err", "rel_err", "tolerance", "pass"}


def test_verify_csv_format(capsys):
    assert main(["verify", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["id", "lhs_re", "lhs_im", "rhs_re", "rhs_im",
                       "abs_err", "rel_err", "tolerance", "pass"]
    assert all(len(r) == 9 for r in rows[1:])
    assert all(r[8] == "true" for r in rows[1:])


def test_verify_failing_config_exits_one(tmp_path, capsys):
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps({"cases": [
        {"id": "imp", "kind": "mb_power", "s": 4.5, "u": 0.25, "c": 1.5,
         "tolerance": 1e-30}]}))
    assert main(["verify", "--config", str(cfg)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["overall_pass"] is False
    assert doc["entries"][0]["pass"] is False


def test_verify_config_via_environment(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps({"cases": [
        {"id": "ok", "kind": "mb_power", "s": 3.0, "u": 0.5, "c": 1.2}]}))
    monkeypatch.setenv("MBZETA_CONFIG", str(cfg))
    assert main(["verify"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [e["id"] for e in doc["entries"]] == ["ok"]


def test_verify_missing_config_is_usage_error(capsys):
    assert main(["verify", "--config", "/nonexistent/suite.json"]) == 2
    assert "usage error" in capsys.readouterr().err


def test_verify_invalid_json_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert main(["verify", "--config", str(cfg)]) == 2
    assert "usage error" in capsys.readouterr().err


def test_verify_semantic_config_error_exits_two(tmp_path, capsys):
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps({"cases": [{"kind": "mystery"}]}))
    assert main(["verify", "--config", str(cfg)]) == 2
    assert "usage error" in capsys.readouterr().err


def test_unknown_flag_exits_two(capsys):
    assert main(["eval", "zeta", "--s", "2", "--bogus-flag"]) == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["eval", "zeta", "--s", "2"],
    ["integrate", "--family", "zetazeta", "--s", "4", "--c", "1.5"],
    ["rect", "--family", "zetazeta", "--s", "4", "--right", "1.5",
     "--left", "0.5", "--T", "10"],
])
def test_csv_rejected_where_not_implemented(argv, capsys):
    assert main([*argv, "--format", "csv"]) == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err


def test_domain_error_exits_one(capsys):
    assert main(["eval", "zeta", "--s", "1,0"]) == 1
    err = capsys.readouterr().err
    assert "PoleProximity" in err


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main(["verify", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(target.read_text())
    assert doc["overall_pass"] is True


def _module_env():
    src = str(Path(mbzeta.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "MBZETA_CONFIG"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_module_invocation_keeps_stderr_clean(tmp_path):
    # `python -m mbzeta.cli` warns on stderr if `import mbzeta` loads cli
    env = _module_env()
    proc = subprocess.run(
        [sys.executable, "-m", "mbzeta.cli", "verify", "--format", "text"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "overall_pass" in proc.stdout


def test_verify_report_is_independent_of_hash_seed(tmp_path):
    # no set order may reach the report: cold runs must agree byte for byte
    outs = []
    for seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "mbzeta.cli", "verify", "--config",
             "default", "--format", "json"],
            capture_output=True, env={**_module_env(), "PYTHONHASHSEED": seed},
            cwd=tmp_path, timeout=120)
        assert proc.returncode == 0
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("case", [
    {"kind": "mb_power", "s": 3, "u": [1], "c": 1.2},
    {"kind": "app_integral", "s": 3, "id": 5},
    {"kind": "mb_power", "s": 3, "u": 0.5, "c": 1.2, "tolerance": "1e-8"},
])
def test_verify_malformed_case_exits_two(tmp_path, capsys, case):
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps({"cases": [case]}))
    assert main(["verify", "--config", str(cfg), "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error" in captured.err
