"""Command-line interface: commands, formats, exit codes."""
import dataclasses
import json
import subprocess
import sys

import pytest

from chi_lie import cli, heisenberg
from chi_lie.homology import compute_homology


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalog_text_listing(capsys):
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0
    assert "heisenberg" in out
    assert "paper_example_1" in out


def test_catalog_json_listing(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert "builders" in doc and "entries" in doc


def test_chi_text_summary(capsys):
    code, out, _ = run_cli(capsys, "chi", "--catalog", "heisenberg", "3")
    assert code == 0
    assert out.strip() == "9 / 6 / 3 / 2 / 0"


def test_chi_text_summary_dim4_example(capsys):
    code, out, _ = run_cli(capsys, "chi", "--catalog", "paper_example_1")
    assert code == 0
    assert out.strip() == "14 / 10 / 6 / 5 / 1"


def test_chi_json_reports_effective_max_class(capsys):
    code, out, _ = run_cli(capsys, "chi", "--catalog", "heisenberg", "3",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["max_class"] == 6
    assert doc["method"] == "nilpotent-quotient"
    assert doc["stabilized"] is True


def test_chi_json_echoes_requested_max_class(capsys):
    code, out, _ = run_cli(capsys, "chi", "--catalog", "heisenberg", "3",
                           "--format", "json", "--max-class", "9")
    assert code == 0
    assert json.loads(out)["max_class"] == 9


def test_chi_superperfect_input(capsys):
    code, out, _ = run_cli(capsys, "chi", "--catalog", "sl2")
    assert code == 0
    parts = out.strip().split(" / ")
    assert parts[0] == "9"
    assert parts[3] == "0" and parts[4] == "0"


def test_chi_output_file_is_byte_deterministic(tmp_path, capsys):
    f1 = tmp_path / "a.json"
    f2 = tmp_path / "b.json"
    assert run_cli(capsys, "chi", "--catalog", "heisenberg", "3",
                   "--format", "json", "--output", str(f1))[0] == 0
    assert run_cli(capsys, "chi", "--catalog", "heisenberg", "3",
                   "--format", "json", "--output", str(f2))[0] == 0
    assert f1.read_bytes() == f2.read_bytes()
    # with --output, json mode writes nothing to stdout
    _, out, _ = run_cli(capsys, "chi", "--catalog", "heisenberg", "3",
                        "--format", "json", "--output", str(f1))
    assert out == ""


def test_chi_reads_algebra_from_file(tmp_path, capsys):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(heisenberg(3).to_json_dict()))
    code, out, _ = run_cli(capsys, "chi", "--input", str(path))
    assert code == 0
    assert out.strip() == "9 / 6 / 3 / 2 / 0"


def test_homology_text_line(capsys):
    code, out, _ = run_cli(capsys, "homology", "--catalog", "abelian", "4")
    assert code == 0
    assert out.strip() == "h1=4 h2_ce=6 h2_hopf=6 h2_exterior=6 agree=true"


def test_homology_marks_inapplicable_route(capsys):
    code, out, _ = run_cli(capsys, "homology", "--catalog", "sl2")
    assert code == 0
    assert "h2_hopf=-" in out


def test_verify_text_battery(capsys):
    code, out, _ = run_cli(capsys, "verify", "--catalog", "abelian", "3")
    assert code == 0
    assert "all passed" in out
    assert out.count("C1") >= 2  # C1 plus C10..C12


def test_missing_input_file_is_an_input_error(capsys):
    code, _, err = run_cli(capsys, "chi", "--input", "/nonexistent/alg.json")
    assert code == 1


def test_unparseable_json_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code, _, _ = run_cli(capsys, "chi", "--input", str(path))
    assert code == 1


def test_invalid_algebra_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    doc = {
        "name": "broken", "dim": 3,
        "basis": ["e0", "e1", "e2"],
        "brackets": [
            {"i": 0, "j": 1, "terms": [{"k": 2, "c": "1"}]},
            {"i": 0, "j": 2, "terms": [{"k": 0, "c": "1"}]},
        ],
    }
    path.write_text(json.dumps(doc))
    code, _, _ = run_cli(capsys, "chi", "--input", str(path))
    assert code == 1


def test_duplicate_bracket_key_is_an_input_error(tmp_path):
    path = tmp_path / "dup.json"
    doc = heisenberg(3).to_json_dict()
    doc["brackets"].append({"i": 0, "j": 1, "terms": []})
    path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "chi_lie.cli", "chi", "--input", str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "duplicate bracket key (0,1)" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def run_verify_on(tmp_path, text):
    """``chi-lie verify --input`` on a file with this text, in a fresh interpreter."""
    path = tmp_path / "alg.json"
    path.write_text(text)
    return subprocess.run(
        [sys.executable, "-m", "chi_lie.cli", "verify", "--input", str(path)],
        capture_output=True, text=True,
    )


def test_deeply_nested_json_is_an_input_error(tmp_path):
    proc = run_verify_on(tmp_path, "[" * 100000 + "]" * 100000)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "nests too deeply" in proc.stderr


def test_zero_denominator_is_an_input_error(tmp_path):
    doc = heisenberg(3).to_json_dict()
    doc["brackets"][0]["terms"][0]["c"] = "1/0"
    proc = run_verify_on(tmp_path, json.dumps(doc))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "malformed Lie algebra JSON" in proc.stderr


@pytest.mark.parametrize("dim, i, j, k", [
    (3, 0.7, 1, 2), (3, 0, 1.2, 2), (3, 0, 1, 2.9), (3.5, 0, 1, 2), (3, 0, True, 2),
])
def test_non_integer_dim_or_index_is_an_input_error(tmp_path, dim, i, j, k):
    # heisenberg(3)'s one bracket [e0, e1] = e2, with one number made a
    # non-integer: int() of any of them would give back heisenberg(3)
    doc = heisenberg(3).to_json_dict()
    doc["dim"] = dim
    doc["brackets"] = [{"i": i, "j": j, "terms": [{"k": k, "c": "1"}]}]
    proc = run_verify_on(tmp_path, json.dumps(doc))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "is not an integer" in proc.stderr


def test_unknown_catalog_name_is_an_input_error(capsys):
    code, _, _ = run_cli(capsys, "chi", "--catalog", "mystery")
    assert code == 1


def test_usage_error_maps_to_input_error(capsys):
    assert run_cli(capsys, "chi")[0] == 1
    assert run_cli(capsys)[0] == 1


def test_help_exits_clean(capsys):
    assert run_cli(capsys, "--help")[0] == 0


def test_unstabilized_sweep_exit_code(capsys):
    code, _, _ = run_cli(capsys, "chi", "--catalog", "free_nilpotent", "2", "3",
                         "--max-class", "4")
    assert code == 2


def test_budget_exhaustion_is_unsupported(monkeypatch, capsys):
    monkeypatch.setenv("CHI_LIE_BUDGET", "8")
    code, _, _ = run_cli(capsys, "chi", "--catalog", "free_nilpotent", "2", "3")
    assert code == 3


def test_verify_heisenberg7_fits_the_default_budget(monkeypatch, capsys):
    monkeypatch.delenv("CHI_LIE_BUDGET", raising=False)
    code, _, err = run_cli(capsys, "verify", "--catalog", "heisenberg", "7")
    assert code == 0, err


def test_perfect_with_multiplier_is_unsupported(tmp_path, capsys):
    from test_chi import sl2_module

    path = tmp_path / "sl2v.json"
    path.write_text(json.dumps(sl2_module().to_json_dict()))
    code, _, _ = run_cli(capsys, "chi", "--input", str(path))
    assert code == 3


def test_homology_disagreement_exit_code(monkeypatch, capsys):
    real = compute_homology

    def doctored(g, budget=None):
        return dataclasses.replace(real(g), agree=False)

    monkeypatch.setattr(cli, "compute_homology", doctored)
    code, _, _ = run_cli(capsys, "homology", "--catalog", "heisenberg", "3")
    assert code == 4


def test_verify_failure_exit_code(monkeypatch, capsys):
    from chi_lie.verify import VerificationReport

    def doctored(c, h):
        return VerificationReport(algebra=c.base.name, checks=(), all_passed=False)

    monkeypatch.setattr(cli, "run_checks", doctored)
    code, _, _ = run_cli(capsys, "verify", "--catalog", "abelian", "2")
    assert code == 4


def test_console_script_is_wired():
    proc = subprocess.run(
        [sys.executable, "-m", "chi_lie.cli", "chi", "--catalog", "abelian", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "5 / 3 / 1 / 1 / 0"
