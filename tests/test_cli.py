import argparse
import csv
import functools
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pairsim import chainmodel as cm
from pairsim import cli
from pairsim import config as cfg
from pairsim import presets
from pairsim.records import field_names


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


class TestFrozenFigures:
    """sha256 of the CSV text of every figure and of one analytic sweep per
    variable, frozen from the per-point loop that evaluated one grid value at
    a time.  The grid-at-once path must keep every byte, so these digests are
    not regenerated by a change that claims the same output.  The sweeps'
    digests and the texts below that hold ``predict``'s columns were frozen
    again when ``predict`` came to read the per-gate law of
    ``chainmodel.no_fire_exponents``: only those columns moved, by rounding
    (at most 7e-12 relative, at the lowest pump powers); the figures did not."""

    FIGURES = {
        "3a": "6b428587804678cb4d3550bbe6a7bd4cd640c73d9ad3de6d8ae49a593289f36b",
        "3b": "65be5d69c2d764707283b6431a300a89deebbb7956087f9d8a330409affe58a6",
        "3c": "0d80c69bcb7472834e48d3115549e296a1ca1a1c0ed9336589224c8098104c94",
        "3d": "b2b9a0d38cd5cb77e873f7038d672921f2dcafcee06c559aa26dbd99fbfa6768",
        "5a": "ccc6f97524538533b0390008a1afc958ac86263ec38475bda2ce861e55be4e0a",
        "5b": "7d8cdc7d51b3bf8697731c82b4b2c63fcc45634e865608e8922651a61de706cf",
    }
    # the l_si grid starts at 1e-8 cm, inside the series branch of the effective length
    SWEEPS = {
        ("wg-i", "pp", "log:0.01:1000000:17"): "28071718a0467ca884ceafa66eec3ab5348ed13b840886d864db93f1bac993ee",
        ("wg-i", "dark", "0:1000000:9"): "ec753345a9a347e69516f93a9edbb71992d22f41b2cf91232f882c8e8b7fcfa0",
        ("wg-i", "l_si", "log:1e-08:6:19"): "0f43d2ca8ceda601ea5fd9cb13ab1415c6653e07d4e6d89170d3db20aaedacce",
        ("wg-i", "l_siox", "0:6:13"): "42bb89ba312f2701ef65d3b1ace2f6227f20cb2e08e3cc45652adb75953f6eae",
        ("awg", "awg_loss", "0:10:11"): "60ea7d501f1fe04e111bc5c406341f8f05cf0be4b0156b67da449f7fc9d1294c",
    }

    # a counting sweep's CSV, frozen from the writer that printed json's
    # numbers: integer counts, and NaN mc_car and mc_car_stderr where no
    # accidental is counted
    COUNTING_SWEEP = (
        ("sweep", "--preset", "wg-i", "--var", "pp", "--grid", "0.001:0.002:2", "--mc", "--pulses", "1000", "--seed", "3"),
        "cf0053a94e85dc7fc0a015ec86eb6ac79fa94ab03825e07a54b28da942cfc2db",
    )

    # sha256 of the ``--out x.json`` text, frozen from the writer that called
    # ``json.dumps(..., indent=2)``; the simulate row has NaN for ``car`` and
    # ``car_stderr`` (no accidental is counted), and so do some ``mc_car`` cells.
    # The simulate and sweep texts name the random stream and hold its
    # counts; they were frozen again for sfc64-sparse-v6, whose blocks draw
    # from SFC64 instead of Philox, so the counts moved with the name.  For
    # sfc64-v7, sfc64-v8 and sfc64-v9 only the name moved: no block of these
    # runs fires on _PER_GATE_FROM of its gates, so each draws its gaps as in
    # v6, and each text differs from the one before only in its rng_stream
    # line.  The counting sweep's CSV was frozen again for each alike
    JSON = {
        **{
            ("reproduce", "--figure", figure): digest
            for figure, digest in {
                "3a": "35f8ea75a012af377fb2171f2436a523c29a1830f6ec762c4c7db3305b3f0a4e",
                "3b": "7c0797e093669c9168a46c8a8b48bb97e4a5f23945825ff417dbb37b0639c929",
                "3c": "fd0fdeacb812b210cee8713a964d5e928143d65b15af355004fd171786197ab2",
                "3d": "1569da916a90aff0a4a858c1a4774f46d5269532075e3edcbb90a5ad9f0a260b",
                "5a": "57f3641fcea003b2f2d5104cce77d7f895085925ebaf93c5ef230bc1fcace7df",
                "5b": "b25c7cc31b6177491499eab1925a2918c6ef0a5347fee5d26cb1b0f65f3617c3",
            }.items()
        },
        ("predict", "--preset", "wg-i"): "80504a4079b5994a044c8474539521226b40b2c6a6d4d157291535182cf6068a",
        ("predict", "--preset", "awg"): "c04d04da4a2c40cb10b611346a1f36a86db0398f721b605b84208637139520b7",
        (
            "simulate", "--preset", "wg-i", "--pulses", "300000", "--seed", "11",
        ): "ef55cd3b2ac1159ddf35ae18f78eb513d771e8767c9691b80d6f780fa7dae9d9",
        (
            "sweep", "--preset", "wg-i", "--var", "pp", "--grid", "log:1:60:4",
            "--mc", "--pulses", "200000", "--seed", "5",
        ): "0491650fcf730a3d249a5cd105aa7406653aafd56d757fecc369ab53c5612f1c",
        # the counting run without dead time, frozen while --no-dead-time was
        # a trial option and not a change to the chain
        (
            "simulate", "--preset", "wg-i", "--pulses", "300000", "--seed", "11", "--no-dead-time",
        ): "47b62286c11d60501393767ecf00cb35c8f1075015fb59b3e5837574c6beff14",
    }

    @pytest.mark.parametrize("figure", sorted(FIGURES))
    def test_figure_csv_is_unchanged(self, tmp_path, figure):
        digest = hashlib.sha256(_reproduce(tmp_path, figure).read_bytes()).hexdigest()
        assert digest == self.FIGURES[figure]

    @pytest.mark.parametrize("preset, var, grid", sorted(SWEEPS), ids=lambda v: str(v))
    def test_sweep_csv_is_unchanged(self, tmp_path, preset, var, grid):
        out = tmp_path / "sweep.csv"
        command = ["sweep", "--preset", preset, "--var", var, "--grid", grid, "--out", str(out)]
        assert cli.main(command) == cli.EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.SWEEPS[preset, var, grid]

    def test_counting_sweep_csv_is_unchanged(self, tmp_path):
        out = tmp_path / "x.csv"
        command, digest = self.COUNTING_SWEEP
        assert cli.main([*command, "--out", str(out)]) == cli.EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines() if not line.startswith("#")]
        assert [row[-6:] for row in rows[1:]] == [["0", "0", "0", "0", "nan", "nan"]] * 2
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("command", sorted(JSON), ids=" ".join)
    def test_json_is_unchanged(self, tmp_path, command):
        out = tmp_path / "out.json"
        assert cli.main([*command, "--out", str(out)]) == cli.EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.JSON[command]


_TEXT = st.text(st.one_of(st.sampled_from('"\\\n\t/éµ光\u2028\x00'), st.characters()), max_size=8)
_CELL = st.one_of(
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, np.float64(math.nan)]),
    st.integers(),
)


class TestJsonWriter:
    """The table's JSON text is what ``json.dumps(..., indent=2)`` writes."""

    @settings(max_examples=300, deadline=None)
    @given(
        metadata=st.dictionaries(_TEXT, _TEXT, max_size=4),
        columns=st.lists(_TEXT, max_size=4),
        rows=st.lists(st.lists(_CELL, max_size=5), max_size=5),
    )
    @example(metadata={"a": 'q"\\\n'}, columns=["x"], rows=[[np.float64(-0.0)]])
    @example(metadata={}, columns=[], rows=[])
    @example(metadata={"k": "v"}, columns=["x", "y"], rows=[[], [1, math.nan], []])
    def test_text_equals_indented_dumps(self, metadata, columns, rows):
        table = cli.ResultTable(columns=columns, rows=rows, metadata=metadata)
        expected = json.dumps({"metadata": metadata, "columns": columns, "rows": rows}, indent=2)
        assert table.to_json_text() == expected


def _csv_reference(table: cli.ResultTable) -> str:
    """The CSV text written cell by cell: repr of the float value of a float,
    str of an int, through csv.writer."""
    buf = io.StringIO()
    for key, value in table.metadata.items():
        buf.write(f"# {key} = {value}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow([repr(float(v)) if isinstance(v, float) else str(v) for v in row])
    return buf.getvalue()


class TestCsvWriter:
    """The table's CSV text is that of csv.writer fed one formatted number at a time."""

    @settings(max_examples=300, deadline=None)
    @given(columns=st.lists(_TEXT, max_size=4), rows=st.lists(st.lists(_CELL, max_size=5), max_size=5))
    @example(columns=["x"], rows=[[], [1, math.nan, -math.inf, np.float64(0.1)], []])
    @example(columns=["x"], rows=[[]])
    def test_text_equals_cell_by_cell_writer(self, columns, rows):
        table = cli.ResultTable(columns=columns, rows=rows, metadata={"k": "v"})
        assert table.to_csv_text() == _csv_reference(table)


class TestParserReuse:
    """``main`` builds its parser once and keeps no state between calls."""

    def test_one_parser_for_many_calls(self, tmp_path, monkeypatch, capsys):
        built = []
        build_parser = cli.build_parser
        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
        out = tmp_path / "out.csv"
        for figure in ("3a", "3c", "3a"):
            assert cli.main(["reproduce", "--figure", figure, "--out", str(out)]) == cli.EXIT_OK
        assert cli.main(["predict", "--preset", "wg-i"]) == cli.EXIT_OK
        assert len(built) == 1

    def test_calls_leave_no_options_behind(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--preset", "wg-i", "--var", "nope", "--grid", "1:2:2"])
        assert exc.value.code == cli.EXIT_CONFIG
        out = tmp_path / "sweep.json"
        sweep = ["sweep", "--preset", "wg-i", "--var", "pp", "--grid", "10:20:2", "--out", str(out)]
        assert cli.main([*sweep, "--mc", "--pulses", "1000", "--seed", "3"]) == cli.EXIT_OK
        assert "mc_car" in json.loads(out.read_text())["columns"]
        assert cli.main(sweep) == cli.EXIT_OK
        table = json.loads(out.read_text())
        assert [c for c in table["columns"] if c.startswith("mc_")] == []
        assert "seed" not in table["metadata"]

    def test_the_model_runs_on_every_call(self, tmp_path, monkeypatch):
        out = tmp_path / "3a.csv"
        command = ["reproduce", "--figure", "3a", "--out", str(out)]
        assert cli.main(command) == cli.EXIT_OK  # builds the parser and the preset
        calls = []
        evaluate = cm.evaluate
        monkeypatch.setattr(cm, "evaluate", lambda *a: calls.append(1) or evaluate(*a))
        assert cli.main(command) == cli.EXIT_OK
        assert cli.main(command) == cli.EXIT_OK
        assert len(calls) == 2


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

    def test_file_of_comments_only_is_an_input_error(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("# pp_mw,y\n\n# nothing measured\n")
        assert cli.main(["fit", str(data), "--model", "poly"]) == cli.EXIT_CONFIG
        assert "no numeric rows found in data file" in capsys.readouterr().err

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

    def test_byte_order_mark_keeps_the_first_row(self, tmp_path, capsys):
        # a spreadsheet export opens with a byte-order mark; read as a header,
        # the first of the 571 rows of figure 3b would be lost without a word
        lines = _reproduce(tmp_path, "3b").read_text().splitlines()
        body = [line for line in lines if not line.startswith("#")][1:]
        assert len(body) == 571
        rows = "\n".join(body) + "\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(rows, encoding="utf-8")
        marked.write_text("\ufeff" + rows, encoding="utf-8")
        capsys.readouterr()
        fits = []
        for data in (plain, marked):
            out = tmp_path / f"{data.stem}.json"
            fit = ["fit", str(data), "--model", "gamma_alpha", "--preset", "wg-i", "--out", str(out)]
            assert cli.main(fit) == cli.EXIT_OK
            fits.append((capsys.readouterr().out, out.read_text()))
        assert fits[0] == fits[1]
        assert json.loads(fits[0][1])["params"]["gamma_per_w_m"] == pytest.approx(161.0, rel=1e-6)

    def test_first_row_with_a_number_is_no_header(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("1e-3x,3\n2,3\n3,5\n4,7\n")
        assert cli.main(["fit", str(data), "--model", "poly"]) == cli.EXIT_CONFIG
        assert "line 1:" in capsys.readouterr().err

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
    def test_high_power_operating_point_exits_zero(self, tmp_path, capsys):
        # 100 W and 200 W peak on wg-i saturate both detectors; the threshold
        # model stays a probability there
        sweep = ["sweep", "--preset", "wg-i", "--var", "pp", "--grid"]
        out = tmp_path / "sweep.json"
        assert cli.main([*sweep, "100000:200000:2", "--out", str(out)]) == cli.EXIT_OK
        table = json.loads(out.read_text())
        assert len(table["rows"]) == 2
        for row in table["rows"]:
            cells = dict(zip(table["columns"], row))
            for name in ("p_click_signal", "p_click_idler", "p_coincidence", "p_accidental"):
                assert 0.0 <= cells[name] <= 1.0
        # each input names the flag to mend; a sweep value the chain cannot
        # take is caught before any point is computed or simulated
        for bad, named in (
            ([*sweep, "100000:200000"], "bad grid spec"),
            ([*sweep, "1:2:0"], "bad grid spec"),
            ([*sweep, "log:1:2:0", "--mc"], "bad grid spec"),
            # a non-finite endpoint, and a linear grid whose step overflows
            ([*sweep, "log:1:1e400:2"], "bad grid spec 'log:1:1e400:2'"),
            ([*sweep, "1:inf:3"], "bad grid spec '1:inf:3'"),
            ([*sweep, "nan:1:2", "--mc"], "bad grid spec 'nan:1:2'"),
            (["sweep", "--preset", "wg-i", "--var", "pp", "--grid=-1e308:1e308:3"], "bad grid spec"),
            ([*sweep, "1:2:3:4"], "bad grid spec '1:2:3:4'"),
            ([*sweep, "log:1:2"], "bad grid spec 'log:1:2'"),
            # a log grid needs two positive endpoints; two negative ones make
            # a grid numpy can build
            ([*sweep, "log:0:1:3"], "log grids need positive endpoints"),
            ([*sweep, "log:-1:-10:3"], "log grids need positive endpoints"),
            # 7.1 PiB of grid, more than a 64-bit process can map
            ([*sweep, "1:2:1000000000000000"], "bad grid spec '1:2:1000000000000000'"),
            # finite grid values whose average power overflows
            ([*sweep, "log:1e-300:1e308:3"], "--grid value 1e+308:"),
            (["sweep", "--preset", "wg-i", "--var", "awg_loss", "--grid", "0:1:2"], "--var awg_loss"),
            (["sweep", "--preset", "awg", "--var", "l_siox", "--grid", "0:1:2"], "--var l_siox"),
            ([*sweep, "0:1:3"], "--grid value 0:"),
            (["sweep", "--preset", "wg-i", "--var", "l_si", "--grid=-1:1:3"], "--grid value -1:"),
            (["sweep", "--preset", "awg", "--var", "awg_loss", "--grid=-1:1:3"], "--grid value -1:"),
            (["sweep", "--preset", "wg-i", "--var", "dark", "--grid", "0:1e9:3"], "--grid value 5e+08:"),
            (["sweep", "--preset", "wg-i", "--var", "dark", "--grid", "0:1e9:3", "--mc"], "--grid"),
        ):
            assert cli.main(bad) == cli.EXIT_CONFIG
            assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "preset, section, update",
        [
            # gamma * P * L_eff squared overflows: pow raises OverflowError
            ("wg-i", ("segments", 0), {"gamma_per_w_m": 1e308}),
            # a half width whose square underflows to 0 divides the overlap by zero
            ("awg", ("demux", "awg"), {"passband_ghz": 1e-320}),
            ("wg-i", ("demux", "filters", "signal"), {"shape": "gaussian", "bandwidth_ghz": 1e-320}),
        ],
        ids=["gamma", "awg-passband", "gaussian-filter"],
    )
    def test_arithmetic_error_exits_three(self, tmp_path, capsys, preset, section, update):
        # each passes every check of its key and fails in the model's arithmetic,
        # which is a numerical failure, not a crash with a traceback
        document = presets.get_preset(preset)
        functools.reduce(lambda node, key: node[key], section, document).update(update)
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(document))
        assert cli.main(["predict", str(path)]) == cli.EXIT_NUMERICAL
        assert "numerical failure:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, flags",
        [
            # finite data whose sums overflow to inf - inf = nan
            ("1,1e308\n2,1e308\n3,-1e308\n4,1\n", ["--model", "poly"]),
            # powers whose squares overflow
            ("1e200,1\n2e200,2\n3e200,4\n", ["--model", "poly"]),
            # a sigma whose 1/sigma**2 weight overflows
            ("pp_mw,y,sigma\n1,1,1e-300\n2,2,1e-300\n3,4,1e-300\n4,9,1e-300\n", ["--model", "poly"]),
            # rates whose profiled amplitude or rss overflows
            ("0,1e308\n1,1e308\n2,1e308\n", ["--model", "decay"]),
            ("1,1e308\n2,1e308\n3,1e308\n", ["--model", "gamma_alpha", "--preset", "wg-i"]),
        ],
        ids=["poly-y", "poly-x", "poly-sigma", "decay", "gamma-alpha"],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_fit_exits_three(self, tmp_path, capsys, text, flags):
        # every value is finite, but the fit's arithmetic is not: a nan or inf
        # estimate is no converged fit, reported by a note and not by warnings
        data = tmp_path / "d.csv"
        data.write_text(text)
        assert cli.main(["fit", str(data), *flags]) == cli.EXIT_NUMERICAL
        out = capsys.readouterr().out
        assert "converged = False" in out
        assert "note: non-finite estimate or rss" in out

    @pytest.mark.parametrize(
        "name, text, command",
        [
            (
                "wg-i.json",
                json.dumps(presets.get_preset("wg-i") | {"description": "d\xe9bit"}, ensure_ascii=False),
                ["predict"],
            ),
            ("d.csv", "1,2\n2,3\n3,5\xe9\n", ["fit", "--model", "poly"]),
        ],
        ids=["config", "data"],
    )
    def test_file_not_utf8_exits_two_naming_it(self, tmp_path, capsys, name, text, command):
        # a latin-1 e-acute is no UTF-8: its decode error is a ValueError,
        # which would exit 3 as a numerical failure
        path = tmp_path / name
        path.write_bytes(text.encode("latin-1"))
        assert cli.main([command[0], str(path), *command[1:]]) == cli.EXIT_CONFIG
        assert f"{str(path)!r} is not UTF-8" in capsys.readouterr().err

    def test_config_with_byte_order_mark_predicts_the_same(self, tmp_path, capsys):
        # an editor may save JSON after a UTF-8 byte-order mark, which
        # json.loads rejects; fit data files already drop it
        text = json.dumps(presets.get_preset("wg-i"))
        printed = []
        for name, mark in (("plain", ""), ("marked", "\ufeff")):
            path = tmp_path / f"{name}.json"
            path.write_text(mark + text, encoding="utf-8")
            assert cli.main(["predict", str(path)]) == cli.EXIT_OK
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]

    def test_thermal_modes_past_the_float_range_exits_two(self, capsys):
        # 10**400 modes is no float, so the pair law cannot take it
        thermal = [*SIMULATE, "--pair-statistics", "thermal", "--thermal-modes", str(10**400)]
        with pytest.raises(SystemExit) as exc:
            cli.main(thermal)
        assert exc.value.code == cli.EXIT_CONFIG
        assert "--thermal-modes" in capsys.readouterr().err

    def test_offset_past_int64_exits_zero(self, capsys):
        # 2**63 does not fit an int64 gate; an offset of n or more opens no window
        offset = ["--accidental-offset", str(2**63), "--seed", "1"]
        assert cli.main(["simulate", "--preset", "wg-i", "--pulses", "1000", *offset]) == cli.EXIT_OK
        assert "accidentals = 0" in capsys.readouterr().out
        sweep = ["sweep", "--preset", "wg-i", "--var", "pp", "--grid", "0.01:0.02:2", "--mc", "--pulses", "1000"]
        assert cli.main([*sweep, *offset]) == cli.EXIT_OK

    def test_dead_time_past_int64_exits_zero(self, tmp_path):
        # 1e20 us is 1e22 gates at 100 MHz, past int64; a dead time of n gates
        # or more leaves every gate after a click dead, so it counts as 30 us,
        # exactly the 3,000 gates of the run
        rows = []
        for dead_us in (1e20, 30.0):
            document = presets.get_preset("wg-i")
            for arm in ("signal", "idler"):
                document["detectors"][arm]["dead_time_us"] = dead_us
            path, out = tmp_path / "chain.json", tmp_path / "sim.json"
            path.write_text(json.dumps(document))
            simulate = ["simulate", str(path), "--pulses", "3000", "--seed", "1", "--out", str(out)]
            assert cli.main(simulate) == cli.EXIT_OK
            rows.append(json.loads(out.read_text())["rows"])
            sweep = ["sweep", str(path), "--var", "pp", "--grid", "1:2:2", "--mc", "--pulses", "3000"]
            assert cli.main(sweep) == cli.EXIT_OK
        assert rows[0] == rows[1]
        assert cfg.build_experiment(document)[0].detector_signal.dead_gates == 3000


class TestPredictOutput:
    @pytest.mark.parametrize("preset", ["wg-i", "awg"])
    def test_out_holds_the_record(self, tmp_path, capsys, preset):
        out = tmp_path / "predict.json"
        assert cli.main(["predict", "--preset", preset, "--out", str(out)]) == cli.EXIT_OK
        pred = cm.predict(*cfg.build_experiment(presets.get_preset(preset)))
        table = json.loads(out.read_text())
        assert table["columns"] == list(field_names(pred))
        assert table["rows"] == [[getattr(pred, name) for name in field_names(pred)]]
        printed = [line.split(" = ")[0] for line in capsys.readouterr().out.splitlines()]
        assert printed == table["columns"]


class TestSimulateOutput:
    def test_counts_print_exactly(self, tmp_path, capsys):
        # 1e9 pulses: a count of 1e8 or more has more digits than 8
        out = tmp_path / "sim.json"
        assert cli.main(["simulate", "--preset", "wg-i", "--pulses", "1000000000", "--out", str(out)]) == cli.EXIT_OK
        table = json.loads(out.read_text())
        written = dict(zip(table["columns"], table["rows"][0]))
        printed = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
        counts = {key: value for key, value in written.items() if isinstance(value, int)}
        assert counts["n_pulses"] == 1_000_000_000
        assert {key: int(printed[key]) for key in counts} == counts


class TestConfigSource:
    @pytest.mark.parametrize(
        "command",
        [
            ["predict"],
            ["simulate", "--pulses", "1000"],
            ["sweep", "--var", "pp", "--grid", "1:2:2"],
            ["fit", "DATA", "--model", "poly", "--config"],
        ],
        ids=lambda command: command[0],
    )
    def test_config_file_with_preset_is_a_usage_error(self, tmp_path, capsys, command):
        # the file would otherwise be ignored without a word
        config = tmp_path / "awg.json"
        config.write_text(json.dumps(presets.get_preset("awg")))
        data = tmp_path / "d.csv"
        data.write_text("1,2\n2,3\n3,5\n")
        argv = [str(data) if arg == "DATA" else arg for arg in command]
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, str(config), "--preset", "wg-i"])
        assert exc.value.code == cli.EXIT_CONFIG
        assert "not both" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [["predict"], ["simulate", "--pulses", "1000"], ["sweep", "--var", "pp", "--grid", "1:2:2"]],
        ids=lambda command: command[0],
    )
    def test_neither_config_nor_preset_is_a_usage_error(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            cli.main(command)
        assert exc.value.code == cli.EXIT_CONFIG
        assert "a configuration file or --preset is required" in capsys.readouterr().err


SIMULATE = ["simulate", "--preset", "wg-i", "--pulses", "1000"]


class TestCountingOptions:
    # montecarlo.TrialConfig is the one check of every counting option but
    # --threads, and the error names the option before TrialConfig's own text
    @pytest.mark.parametrize(
        "flags, message",
        [
            ([*SIMULATE, "--accidental-offset", "0"], "--accidental-offset: accidental_offset must be >= 1"),
            (
                [*SIMULATE, "--pair-statistics", "thermal", "--thermal-modes", "0"],
                "--thermal-modes: thermal modes must be a finite number of at least 1",
            ),
            (
                [*SIMULATE, "--thermal-modes", str(10**400)],
                "--thermal-modes: thermal modes must be a finite number of at least 1",
            ),
            ([*SIMULATE, "--threads", "0"], "--threads must be a positive integer"),
            ([*SIMULATE, "--pulses", "0"], "--pulses: n_pulses must be in [1, 2**62]"),
            # an analytic sweep draws nothing, but its counting options are
            # still checked, the trial's before --threads
            (
                ["sweep", "--preset", "wg-i", "--var", "pp", "--grid", "1:2:2", "--threads", "0", "--pulses", "0"],
                "--pulses: n_pulses must be in [1, 2**62]",
            ),
            # runs whose gates plus a dead window would pass int64
            (
                ["sweep", "--preset", "wg-i", "--var", "pp", "--grid", "1:2:2", "--pulses", str(2**62 + 1)],
                "--pulses: n_pulses must be in [1, 2**62]",
            ),
            (
                ["sweep", "--preset", "wg-i", "--var", "pp", "--grid", "1:2:2", "--pulses", str(10**400)],
                "--pulses: n_pulses must be in [1, 2**62]",
            ),
            # a negative seed, which the random stream cannot take, with and without draws
            ([*SIMULATE, "--seed", "-1"], "--seed: seed must be >= 0"),
            (["sweep", "--preset", "wg-i", "--var", "pp", "--grid", "1:2:2", "--seed", "-1"], "--seed: seed must be >= 0"),
        ],
    )
    def test_bad_counting_option_is_a_usage_error(self, capsys, flags, message):
        # an error of the option lookup itself would escape main and fail pytest.raises
        with pytest.raises(SystemExit) as exc:
            cli.main(flags)
        assert exc.value.code == cli.EXIT_CONFIG
        assert f"pairsim: error: {message}\n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fields, flag",
        [
            ({"n_pulses": 0}, "--pulses"),
            ({"n_pulses": 2**62 + 1}, "--pulses"),
            ({"n_pulses": 1.0}, "--pulses"),
            ({"n_pulses": True}, "--pulses"),
            ({"seed": -1}, "--seed"),
            ({"seed": 0.5}, "--seed"),
            ({"accidental_offset": 0}, "--accidental-offset"),
            ({"accidental_offset": 1.0}, "--accidental-offset"),
            ({"pair_statistics": "binomial"}, "--pair-statistics"),
            ({"thermal_modes": 0}, "--thermal-modes"),
            ({"thermal_modes": math.nan}, "--thermal-modes"),
        ],
        ids=str,
    )
    def test_every_trial_error_names_its_option(self, fields, flag):
        # each of TrialConfig's errors, also those argparse's types and
        # choices keep from the command line, maps to the option it is about
        from pairsim import montecarlo

        with pytest.raises(ValueError) as exc:
            montecarlo.TrialConfig(**{"n_pulses": 1000, **fields})
        assert cli._trial_flag(exc.value) == flag
        options = argparse.ArgumentParser()
        cli._add_mc_arguments(options)
        assert flag in options.format_help().split()

    def test_no_dead_time_reaches_the_predictions(self, tmp_path):
        # at 300 mW the 1000-gate dead time cuts the predicted clicks about
        # 77-fold; without it the sweep predicts and counts as the same
        # document with no dead time does
        document = presets.get_preset("wg-i")
        for arm in document["detectors"].values():
            arm["dead_time_us"] = 0.0
        free = tmp_path / "free.json"
        free.write_text(json.dumps(document))
        rows = []
        for source in (["--preset", "wg-i", "--no-dead-time"], [str(free)]):
            out = tmp_path / "sweep.json"
            grid = ["--var", "pp", "--grid", "300:300:1", "--mc", "--pulses", "20000", "--seed", "3"]
            with pytest.warns(RuntimeWarning, match="per-pulse mean"):
                assert cli.main(["sweep", *source, *grid, "--out", str(out)]) == cli.EXIT_OK
            rows.append(json.loads(out.read_text())["rows"])
        assert rows[0] == rows[1]
        assert rows[0][0][5] > 0.07

    def test_pair_statistics_reach_the_predictions(self, tmp_path):
        # one thermal mode on wg-i without dead time: the prediction columns
        # are predict's for that law, and the counts stay the ones frozen
        # below, under sfc64-v9; the 100 mW point fires on 0.018 of its gates
        # and draws its gaps, the 1 W point on 0.63 and draws one 16-bit
        # uniform per gate.  At 1 W the counted CAR is 1.384 (sd 0.003); the
        # thermal prediction lies within 4.5 sd of it, and the Poisson one,
        # 1.022, more than 100 sd away
        out = tmp_path / "sweep.json"
        grid = ["--var", "pp", "--grid", "log:100:1000:2", "--mc", "--pulses", "2000000", "--seed", "1"]
        thermal = ["--pair-statistics", "thermal", "--thermal-modes", "1", "--no-dead-time"]
        with pytest.warns(RuntimeWarning, match="per-pulse mean"):
            assert cli.main(["sweep", "--preset", "wg-i", *grid, *thermal, "--out", str(out)]) == cli.EXIT_OK
        table = json.loads(out.read_text())
        cells = {name: [row[k] for row in table["rows"]] for k, name in enumerate(table["columns"])}
        document = presets.get_preset("wg-i")
        for arm in document["detectors"].values():
            arm["dead_time_us"] = 0.0
        swept = cm.apply_sweep_value(*cfg.build_experiment(document), "pp", np.geomspace(100.0, 1000.0, 2) * 1e-3)
        pred, poisson = cm.predict(*swept, thermal_modes=1), cm.predict(*swept)
        for name in table["columns"][1:10]:
            assert cells[name] == np.broadcast_to(getattr(pred, name), (2,)).tolist(), name
        assert cells["mc_singles_signal"] == [18614, 930588]
        assert cells["mc_singles_idler"] == [18488, 930743]
        assert cells["mc_coincidences"] == [1070, 599015]
        assert cells["mc_accidentals"] == [165, 432860]
        assert cells["mc_car"] == [6.484848484848484, 1.3838539019544425]
        assert cells["mc_car_stderr"] == [0.5423747354684636, 0.002760649122720234]
        z = (cells["car"][1] - cells["mc_car"][1]) / cells["mc_car_stderr"][1]
        z_poisson = (poisson.car[1] - cells["mc_car"][1]) / cells["mc_car_stderr"][1]
        assert abs(z) < 4.5 and abs(z_poisson) > 100.0, (z, z_poisson)

    def test_counting_output_names_its_random_stream(self, tmp_path):
        out = tmp_path / "sim.json"
        simulate = ["simulate", "--preset", "wg-i", "--pulses", "1000", "--out", str(out)]
        assert cli.main(simulate) == cli.EXIT_OK
        assert json.loads(out.read_text())["metadata"]["rng_stream"] == "sfc64-v9"
        sweep = ["sweep", "--preset", "wg-i", "--var", "pp", "--grid", "10:20:2", "--out", str(out)]
        assert cli.main([*sweep, "--mc", "--pulses", "1000"]) == cli.EXIT_OK
        assert json.loads(out.read_text())["metadata"]["rng_stream"] == "sfc64-v9"
        # the analytic sweep draws nothing and its output stays as it was
        assert cli.main(sweep) == cli.EXIT_OK
        assert "rng_stream" not in json.loads(out.read_text())["metadata"]


class TestImport:
    def test_import_builds_no_parser(self, fresh_python):
        assert fresh_python("import pairsim.cli as cli; print(cli._parser)") == "None"

    def test_package_loads_no_module(self, fresh_python):
        # each name is imported from the module that defines it
        code = "import sys, pairsim; print([m for m in sys.modules if m.startswith('pairsim.')])"
        assert fresh_python(code) == "[]"

    def test_import_loads_no_scipy(self, fresh_python):
        # the console script loads pairsim.cli, which loads every module the
        # commands call; scipy is imported only inside the fitter that uses
        # it, and the configuration builders check each key without jsonschema
        code = "import sys, pairsim.cli; print([m for m in sys.modules if m.split('.')[0] in ('scipy', 'jsonschema')])"
        assert fresh_python(code) == "[]"

    def test_import_loads_no_numpy_random(self, fresh_python):
        # numpy loads numpy.random (some 17 ms and 2 MB) at its first use,
        # which is the first Monte Carlo draw
        assert fresh_python("import sys, pairsim.cli; print('numpy.random' in sys.modules)") == "False"

    @pytest.mark.parametrize(
        "argv, code",
        [(["predict", "--preset", "wg-i"], 0), (["--help"], 0), (["--version"], 0), (["predict", "CONFIG"], 2)],
        ids=["predict", "help", "version", "bad-config"],
    )
    def test_command_without_arrays_loads_no_numpy(self, tmp_path, fresh_python, argv, code):
        # numpy's import is most of a cold start; a command that builds no
        # grid, draws nothing and fits nothing runs without it, and so does a
        # configuration that exits 2 (here a rep rate given as a string).
        # Nor does it load dataclasses, which imports inspect and compiles
        # each record's methods: the records of the closed-form layer are
        # records.Record
        document = presets.get_preset("wg-i")
        document["pump"]["rep_rate_mhz"] = "100"
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(document))
        argv = [str(config) if arg == "CONFIG" else arg for arg in argv]
        program = (
            "import contextlib, io, sys\n"
            "from pairsim import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            "    try:\n"
            f"        code = cli.main({argv!r})\n"
            "    except SystemExit as exc:\n"
            "        code = exc.code\n"
            "print(code, [m for m in ('numpy', 'dataclasses', 'inspect') if m in sys.modules])"
        )
        assert fresh_python(program) == f"{code} []"

    def test_predict_loads_no_typing(self):
        # cli declares the names of its annotations behind TYPE_CHECKING =
        # False, and typing costs some 5 ms of a cold start.  Without site
        # (-S), which on some hosts loads typing through a .pth hook, predict
        # needs nothing outside the standard library and these sources
        program = (
            "import contextlib, io, sys\n"
            "from pairsim import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(['predict', '--preset', 'wg-i'])\n"
            "print(code, 'typing' in sys.modules)"
        )
        src = Path(cli.__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, "-S", "-c", program],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        assert result.stdout.strip() == "0 False"

    def test_closed_form_loads_no_numpy(self, fresh_python):
        # numpy's import is most of a cold start; the closed-form layer loads
        # it only when an array reaches it, and building and predicting a
        # preset passes none.  Building and predicting load neither
        # dataclasses nor inspect, nor hashlib, which only the config hash uses
        code = (
            "import sys\n"
            "from pairsim import chainmodel as cm, config, presets\n"
            "def loaded():\n"
            "    return [m for m in ('numpy', 'dataclasses', 'inspect', 'hashlib') if m in sys.modules]\n"
            "for name in presets.preset_names():\n"
            "    chain, pump = config.build_experiment(presets.get_preset(name))\n"
            "    cm.evaluate(chain, pump), cm.predict(chain, pump), cm.car_estimate(chain, pump)\n"
            "built = loaded()\n"
            "for name in presets.preset_names():\n"
            "    config.config_hash(presets.get_preset(name))\n"
            "print(len(presets.preset_names()), built, 'numpy' in sys.modules)"
        )
        assert fresh_python(code) == "7 [] False"
