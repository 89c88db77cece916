import csv
import json

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
        # x and the signal column only: a third column would be read as sigma
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
