"""Command-line surface: parsing, file output, determinism, exit codes."""

import json
import math
from fractions import Fraction as F

import numpy as np
import pytest

from rosenmorse.cli import main, rational


def read_rows(path):
    meta, columns, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append([float(F(v)) for v in line.split(",")])
    return meta, columns, np.array(rows)


class TestParsing:
    def test_rational_forms(self):
        assert rational("1/4") == F(1, 4)
        assert rational("0.25") == F(1, 4)
        assert rational("-3") == -3

    def test_rational_rejects_garbage(self):
        with pytest.raises(Exception):
            rational("abc")

    def test_poly_rejects_n_zero(self):
        with pytest.raises(SystemExit) as err:
            main(["poly", "--a", "0", "--b", "1", "--n", "0"])
        assert err.value.code == 2

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            main(["verify", "everything"])


class TestPoly:
    def test_text_output(self, capsys):
        assert main(["poly", "--a", "0", "--b", "1", "--n", "2"]) == 0
        out = capsys.readouterr().out
        # coefficients of 2x - 1, proportional to -x + 1/2
        assert "x^0: -1" in out
        assert "x^1: 2" in out

    def test_constant_level_one(self, capsys):
        assert main(["poly", "--a", "1", "--b", "50", "--n", "1"]) == 0
        out = capsys.readouterr().out
        assert "x^0: 1" in out and "x^1" not in out

    def test_exact_rational_coefficients(self, capsys):
        assert main(["poly", "--a", "1/4", "--b", "1", "--n", "2"]) == 0
        out = capsys.readouterr().out
        # proportional to -(1+a)x + b/(2+a) = -5/4 x + 4/9; emitted with
        # positive leading coefficient, so 5/2 x - 8/9
        assert "x^0: -8/9" in out and "x^1: 5/2" in out

    def test_csv_file(self, tmp_path):
        target = tmp_path / "poly.csv"
        assert main(["poly", "--a", "0", "--b", "1", "--n", "3",
                     "--format", "csv", "-o", str(target)]) == 0
        meta, columns, rows = read_rows(target)
        assert columns == ["power", "coefficient"]
        assert meta["a"] == "0" and meta["n"] == "3"
        assert rows.shape == (3, 2)


class TestSpectrum:
    def test_trm_text(self, capsys):
        assert main(["spectrum", "--system", "trm", "--a", "0", "--b", "0", "--n-max", "3"]) == 0
        out = capsys.readouterr().out
        assert "n=1: epsilon = 1" in out
        assert "n=3: epsilon = 9" in out

    def test_eckart_level_count(self, tmp_path):
        target = tmp_path / "eck.csv"
        assert main(["spectrum", "--system", "eckart", "--a", "0", "--b", "50",
                     "--format", "csv", "-o", str(target)]) == 0
        _, columns, rows = read_rows(target)
        assert columns == ["n", "epsilon", "epsilon_float"]
        assert len(rows) == math.floor(math.sqrt(50))
        assert rows[0][2] == pytest.approx(-2501.0)

    def test_eckart_threshold_level_omitted(self, tmp_path):
        target = tmp_path / "eck.csv"
        assert main(["spectrum", "--system", "eckart", "--a", "0", "--b", "100",
                     "--format", "csv", "-o", str(target)]) == 0
        _, _, rows = read_rows(target)
        assert rows[:, 0].tolist() == list(range(1, 10))

    def test_trm_values(self, tmp_path):
        target = tmp_path / "trm.csv"
        assert main(["spectrum", "--a", "1", "--b", "50", "--n-max", "2",
                     "--format", "csv", "-o", str(target)]) == 0
        _, _, rows = read_rows(target)
        assert rows[:, 2] == pytest.approx([-621.0, -2419.0 / 9])


class TestFigures:
    def test_figure_ii_shape(self, tmp_path):
        target = tmp_path / "fig2.csv"
        assert main(["figure", "II", "--a", "1", "--b", "50", "-o", str(target)]) == 0
        meta, columns, rows = read_rows(target)
        assert columns == ["z", "v"]
        v = rows[:, 1]
        interior_minima = np.sum((v[1:-1] < v[:-2]) & (v[1:-1] < v[2:]))
        assert interior_minima == 1
        # divergence at both walls: edge samples dominate their half and dwarf the well depth
        half = len(v) // 2
        assert v[0] == v[:half].max() and v[-1] == v[half:].max()
        assert v[0] > 10 * abs(v.min()) and v[-1] > 10 * abs(v.min())
        _, _, levels = read_rows(tmp_path / "fig2_levels.csv")
        assert len(levels) == 5
        assert levels[0][1] == pytest.approx(-621.0)

    def test_figure_iii_node_counts(self, tmp_path):
        target = tmp_path / "fig3.csv"
        assert main(["figure", "III", "--a", "0.25", "--b", "1", "-o", str(target)]) == 0
        _, columns, rows = read_rows(target)
        assert columns == ["z", "r1", "r2"]
        r1, r2 = rows[:, 1], rows[:, 2]
        sign_changes = lambda v: int(np.sum(np.sign(v[1:]) * np.sign(v[:-1]) < 0))
        assert sign_changes(r1) == 0
        assert sign_changes(r2) == 1

    def test_figure_iv_strictly_decreasing(self, tmp_path):
        target = tmp_path / "fig4.csv"
        assert main(["figure", "IV", "--a", "1", "--b", "50", "-o", str(target)]) == 0
        _, columns, rows = read_rows(target)
        assert columns == ["z", "u"]
        assert np.all(np.diff(rows[:, 1]) < 0)

    def test_figure_i_files(self, tmp_path):
        target = tmp_path / "fig1.csv"
        with pytest.warns(UserWarning):
            assert main(["figure", "I", "--a", "-1", "--b", "50", "-o", str(target)]) == 0
        _, columns, rows = read_rows(target)
        assert columns == ["z", "v"]
        _, _, levels = read_rows(tmp_path / "fig1_levels.csv")
        assert len(levels) == 7
        assert levels[0][1] == pytest.approx(-2501.0)

    def test_figure_output_deterministic(self, tmp_path):
        one, two = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["figure", "II", "--a", "1", "--b", "50", "-o", str(one)])
        main(["figure", "II", "--a", "1", "--b", "50", "-o", str(two)])
        assert one.read_bytes() == two.read_bytes()

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ROSENMORSE_OUT_DIR", str(tmp_path))
        assert main(["figure", "IV", "--a", "1", "--b", "50"]) == 0
        assert (tmp_path / "figure_iv.csv").exists()

    def test_json_mirror(self, tmp_path):
        target = tmp_path / "fig4.json"
        assert main(["figure", "IV", "--a", "1", "--b", "50",
                     "--format", "json", "-o", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert payload["columns"] == ["z", "u"]
        assert payload["meta"]["a"] == "1"
        assert len(payload["rows"]) == 800


class TestVerify:
    def test_polynomials_suite_passes(self, capsys):
        assert main(["verify", "polynomials"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_normalization_suite_passes(self, capsys):
        assert main(["verify", "normalization"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out

    def test_failure_gives_nonzero_exit(self, monkeypatch, capsys):
        from rosenmorse import checks

        monkeypatch.setitem(
            checks.SUITES, "normalization",
            lambda: [checks.CheckResult("forced", False, "synthetic failure")],
        )
        assert main(["verify", "normalization"]) == 1
        assert "FAIL forced" in capsys.readouterr().out
