import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pairsim import cli


def _reproduce(tmp_path, figure: str):
    path = tmp_path / f"{figure}.csv"
    assert cli.main(["reproduce", "--figure", figure, "--out", str(path)]) == cli.EXIT_OK
    return path


def _fit(tmp_path, data, *flags) -> dict:
    out = tmp_path / "fit.json"
    assert cli.main(["fit", str(data), *flags, "--out", str(out)]) == cli.EXIT_OK
    return json.loads(out.read_text())["params"]


class TestReproduceCsv:
    @pytest.mark.parametrize("figure", cli.FIGURES)
    def test_every_cell_is_a_plain_number(self, tmp_path, figure):
        lines = _reproduce(tmp_path, figure).read_text().splitlines()
        body = [line for line in lines if not line.startswith("#")]
        header, rows = body[0].split(","), list(csv.reader(body[1:]))
        assert rows
        for row in rows:
            assert len(row) == len(header)
            for cell in row:
                float(cell)  # raises on np.float64(...) text


class TestReproduceFitRoundTrip:
    """Figure curves written by reproduce and read back by fit recover the preset."""

    def test_figure_3b_gives_gamma_and_alpha(self, tmp_path):
        data = _reproduce(tmp_path, "3b")
        params = _fit(tmp_path, data, "--model", "gamma_alpha", "--preset", "wg-i")
        assert params["gamma_per_w_m"] == pytest.approx(161.0, rel=1e-6)
        assert params["alpha_db_per_m"] / 100.0 == pytest.approx(2.0, rel=1e-6)

    def test_figure_3c_signal_gives_noise_polynomial(self, tmp_path):
        rows = _reproduce(tmp_path, "3c").read_text().splitlines()
        # x and the signal column only: a third column must be named sigma
        data = tmp_path / "signal.csv"
        data.write_text("\n".join(",".join(line.split(",")[:2]) for line in rows) + "\n")
        params = _fit(tmp_path, data, "--model", "poly")
        assert params["n0"] == pytest.approx(1e-4, rel=1e-6)
        assert params["n1_per_w"] == pytest.approx(0.15, rel=1e-6)

    def test_figure_3a_from_zero_length_gives_passive_loss(self, tmp_path):
        # the curve starts at l_siox = 0, where the decay model is defined
        params = _fit(tmp_path, _reproduce(tmp_path, "3a"), "--model", "decay")
        assert params["alpha_db_per_m"] / 100.0 == pytest.approx(1.8, rel=1e-6)


class TestFitInput:
    def test_negative_x_is_an_input_error(self, tmp_path, capsys):
        data = tmp_path / "neg.csv"
        data.write_text("x,y\n-1,2\n1,3\n2,4\n")
        assert cli.main(["fit", str(data), "--model", "poly"]) == cli.EXIT_CONFIG
        assert "non-negative" in capsys.readouterr().err

    def test_gamma_alpha_without_config_is_a_usage_error(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("1,2\n2,3\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["fit", str(data), "--model", "gamma_alpha"])
        assert exc.value.code == cli.EXIT_CONFIG

    def test_untrimmed_figure_3c_names_the_extra_column(self, tmp_path, capsys):
        data = _reproduce(tmp_path, "3c")
        assert cli.main(["fit", str(data), "--model", "poly"]) == cli.EXIT_CONFIG
        assert "'singles_idler_per_pulse'" in capsys.readouterr().err

    def test_column_after_sigma_is_an_input_error(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("pp_mw,y,sigma,extra\n1,2,0.1,7\n2,3,0.1,7\n3,5,0.1,7\n")
        assert cli.main(["fit", str(data), "--model", "poly"]) == cli.EXIT_CONFIG
        assert "'extra'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, line",
        [
            ("pp_mw,y\n1,2\n2,3\nthree,4\n4,7\n5,9\n", 4),
            ("pp_mw,y\n1,2\n2,3\n# note\n\n3,\n4,7\n5,9\n", 6),
            # float() reads these, and the fit would print nan parameters
            ("pp_mw,y\n1,2\n2,3\n3,nan\n4,9\n5,11\n", 4),
            ("pp_mw,y,sigma\n1,2,0.1\n2,3,nan\n3,5,0.1\n4,9,0.1\n", 3),
            ("pp_mw,y\n1,2\n2,3\n3,5\n4,9\n5,inf\n", 6),
        ],
        ids=["non-numeric", "one-cell", "nan-y", "nan-sigma", "inf-y"],
    )
    def test_bad_data_row_names_its_line(self, tmp_path, capsys, text, line):
        data = tmp_path / "d.csv"
        data.write_text(text)
        assert cli.main(["fit", str(data), "--model", "poly"]) == cli.EXIT_CONFIG
        assert f"line {line}:" in capsys.readouterr().err

    def test_empty_cell_names_its_line(self, tmp_path, capsys):
        # read with the empty cell dropped, line 1 would be x = 1, y = 2 and
        # every other row's sigma column would be ignored
        data = tmp_path / "d.csv"
        data.write_text("1,,2\n2,3,0.1\n3,5,0.1\n4,7,0.1\n")
        assert cli.main(["fit", str(data), "--model", "poly"]) == cli.EXIT_CONFIG
        assert "line 1: empty cell" in capsys.readouterr().err

    def test_short_row_names_its_line(self, tmp_path, capsys):
        # read with the short row, every row would lose its sigma and the
        # weighted fit would run unweighted
        data = tmp_path / "d.csv"
        data.write_text("1,2,1\n2,3,1\n3,5\n4,9,1e-6\n5,10,1\n6,12,1\n")
        assert cli.main(["fit", str(data), "--model", "poly"]) == cli.EXIT_CONFIG
        assert "line 3:" in capsys.readouterr().err

    @pytest.mark.parametrize("header", ["# no header", "pp_mw,y,sigma"])
    def test_fourth_cell_names_its_line(self, tmp_path, capsys, header):
        data = tmp_path / "d.csv"
        data.write_text(f"{header}\n1,2,0.1,9\n2,3,0.1,9\n3,5,0.1,9\n")
        assert cli.main(["fit", str(data), "--model", "poly"]) == cli.EXIT_CONFIG
        assert "line 2:" in capsys.readouterr().err

    def test_sigma_column_weights_the_fit(self, tmp_path):
        # one outlier at x = 4 whose tiny sigma pulls the weighted fit
        rows = ["1,2,1", "2,3,1", "3,5,1", "4,9,1e-6", "5,10,1", "6,12,1"]
        files = {
            "named": "pp_mw,y,sigma\n" + "\n".join(rows),
            "headerless": "\n".join(rows),
            "unweighted": "pp_mw,y\n" + "\n".join(r.rsplit(",", 1)[0] for r in rows),
        }
        fits = {}
        for name, text in files.items():
            (tmp_path / f"{name}.csv").write_text(text + "\n")
            fits[name] = _fit(tmp_path, tmp_path / f"{name}.csv", "--model", "poly")
        assert fits["named"] == fits["headerless"]
        assert fits["named"] != fits["unweighted"]


class TestExitCodes:
    def test_out_of_range_operating_point_is_a_numerical_failure(self, capsys):
        # 100 W peak on wg-i drives the linearised click probability far above 1
        sweep = ["sweep", "--preset", "wg-i", "--var", "pp", "--grid"]
        assert cli.main([*sweep, "100000:200000:2"]) == cli.EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err
        for bad in (["100000:200000"], ["1:2:0"], ["log:1:2:0", "--mc"]):
            assert cli.main([*sweep, *bad]) == cli.EXIT_CONFIG
            assert "bad grid spec" in capsys.readouterr().err


class TestCountingOptions:
    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--accidental-offset", "0"], "--accidental-offset"),
            (["--pair-statistics", "thermal", "--thermal-modes", "0"], "--thermal-modes"),
        ],
    )
    def test_bad_counting_option_is_a_usage_error(self, capsys, flags, named):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--preset", "wg-i", "--pulses", "1000", *flags])
        assert exc.value.code == cli.EXIT_CONFIG
        assert named in capsys.readouterr().err

    def test_counting_output_names_its_random_stream(self, tmp_path):
        out = tmp_path / "sim.json"
        simulate = ["simulate", "--preset", "wg-i", "--pulses", "1000", "--out", str(out)]
        assert cli.main(simulate) == cli.EXIT_OK
        assert json.loads(out.read_text())["metadata"]["rng_stream"] == "philox-sparse-v2"
        sweep = ["sweep", "--preset", "wg-i", "--var", "pp", "--grid", "10:20:2", "--out", str(out)]
        assert cli.main([*sweep, "--mc", "--pulses", "1000"]) == cli.EXIT_OK
        assert json.loads(out.read_text())["metadata"]["rng_stream"] == "philox-sparse-v2"
        # the analytic sweep draws nothing and its output stays as it was
        assert cli.main(sweep) == cli.EXIT_OK
        assert "rng_stream" not in json.loads(out.read_text())["metadata"]


class TestImport:
    def test_import_loads_no_scipy(self):
        # scipy is imported only inside the fitter that uses it
        code = "import sys, pairsim; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        src = Path(cli.__file__).resolve().parents[1]
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert out.strip() == "[]"
