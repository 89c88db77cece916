import contextlib
import copy
import decimal
import io
import json
import math
import re
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pairsim import chainmodel as cm
from pairsim import cli
from pairsim import config as cfg
from pairsim import presets
from pairsim.records import field_names

DOCUMENTS = {name: presets.get_preset(name) for name in ("wg-i", "awg")}

# name tokens that state a unit; a key made only of the others names no unit
_UNIT_TOKENS = {"db", "per", "cm", "m", "w", "mw", "mhz", "ghz", "khz", "nm", "ps", "us", "ns"}


def _object_paths(node, path=()):
    """Paths of every JSON object in a document, the root included."""
    if isinstance(node, dict):
        yield path
        for key, value in node.items():
            yield from _object_paths(value, (*path, key))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _object_paths(value, (*path, index))


def _bare(key: str) -> str:
    """The key without its unit tokens: ``rep_rate`` for ``rep_rate_mhz``."""
    return "_".join(t for t in key.split("_") if t not in _UNIT_TOKENS)


def _unit_keys(node):
    """(object path, key, key without its unit tokens) for every unit-bearing key."""
    for object_path in _object_paths(node):
        target = _at(node, object_path)
        for key, value in target.items():
            if isinstance(value, (int, float)) and _bare(key) != key:
                yield object_path, key, _bare(key)


def _leaves(node):
    """(object path, key, value) for every value that is neither an object nor a list."""
    for object_path in _object_paths(node):
        for key, value in _at(node, object_path).items():
            if not isinstance(value, (dict, list)):
                yield object_path, key, value


def _at(document, path):
    for step in path:
        document = document[step]
    return document


def _cli_predict(tmp_dir, document) -> tuple[int, str]:
    """Exit code and standard error of ``predict`` on the document."""
    path = tmp_dir / "config.json"
    path.write_text(json.dumps(document))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["predict", str(path)])
    return code, err.getvalue()


# every key a configuration document may hold, at any depth
KNOWN_KEYS = {
    "description", "pump", "coupling_loss_db", "segments", "demux", "post_filters", "detectors", "noise",
    "wavelength_nm", "rep_rate_mhz", "fwhm_ps", "average_power_mw", "peak_power_mw",
    "kind", "length_cm", "loss_db_per_cm", "gamma_per_w_m",
    "filters", "awg", "signal", "idler",
    "bandwidth_ghz", "insertion_loss_db", "shape", "center_wavelength_nm",
    "channels", "spacing_ghz", "passband_ghz", "signal_channel", "idler_channel",
    "passband_shape", "generation_band_ghz", "crosstalk_floor",
    "qe", "dark_rate_khz", "dead_time_us", "n0", "n1_per_w",
}
OBJECT_PATHS = [(name, path) for name, doc in DOCUMENTS.items() for path in _object_paths(doc)]
UNIT_KEYS = [(name, *entry) for name, doc in DOCUMENTS.items() for entry in _unit_keys(doc)]
# every leaf of the presets, and the optional keys they leave out at a value a document may hold
LEAVES = [(name, *entry) for name, doc in DOCUMENTS.items() for entry in _leaves(doc)] + [
    ("wg-i", ("demux", "filters", "signal"), "center_wavelength_nm", 1546.4),
    ("awg", ("demux", "awg"), "generation_band_ghz", 1600.0),
    ("awg", ("demux", "awg"), "crosstalk_floor", 1e-3),
]
# the channel keys are signed offsets from the centre port; every other number is bounded at 0 or above
SIGNED_KEYS = {"signal_channel", "idler_channel"}


def _bad_leaf_cases():
    """(preset, object path, key, bad value, text the error must hold) for every leaf.

    A value of the wrong type, or a non-finite number, names its key.  A value
    below the key's bound names the object holding it, ``segments/0`` or
    ``detectors/idler``; a key of the root object by its name without units.
    That holds for -1e-320 too, which the conversions of a wavelength, a dark
    rate and a dead time to SI units take to -0.0.
    """
    for name, path, key, good in LEAVES:
        where = "/".join(map(str, path))
        bad = {"true": True, "null": None, "list": [good]}
        if key != "description":
            bad["string"] = "x"  # the other string keys take one of a few names
        if not isinstance(good, str):
            bad |= {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}
        cases = [(label, value, key) for label, value in bad.items()]
        if not isinstance(good, str) and key not in SIGNED_KEYS:
            below = {"negative": -1.0, "-1e-12": -1e-12, "-1e-320": -1e-320}
            cases += [(label, value, where or _bare(key)) for label, value in below.items()]
        for label, value, named in cases:
            yield pytest.param(name, path, key, value, named, id=f"{name}:{where}/{key}={label}")


@pytest.fixture(scope="module")
def tmp_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("config")


FROZEN_PREDICTIONS = json.loads(Path(__file__).with_name("frozen_predictions.json").read_text())


def frozen_cases() -> dict:
    """(chain, pump) of every case in ``frozen_predictions.json``."""
    cases = {name: cfg.build_experiment(presets.get_preset(name)) for name in presets.preset_names()}
    cases["wg-i, dark 1e5 Hz"] = cm.apply_sweep_value(*cases["wg-i"], "dark", 1e5)
    document = presets.get_preset("wg-i")
    for arm in ("signal", "idler"):
        document["detectors"][arm]["dead_time_us"] = 0.01  # one gate at 100 MHz
    cases["wg-i, 1-gate dead time"] = cfg.build_experiment(document)
    return cases


class TestFrozenPredictions:
    """The repr of every ``RatePrediction`` field, frozen from the model as it
    stood before detectors were stated in pump gates, and frozen again when
    ``predict`` came to read the per-gate law of
    ``chainmodel.no_fire_exponents`` (every field within 4e-13 relative of
    before; ``mu_*``, ``peak_power_w`` and ``pair_bandwidth_hz`` unmoved).
    The file is not regenerated by a change that claims the same output."""

    @pytest.fixture(scope="class")
    def cases(self):
        return frozen_cases()

    @pytest.mark.parametrize("case", sorted(FROZEN_PREDICTIONS))
    def test_every_field_is_bit_identical(self, cases, case):
        pred = cm.predict(*cases[case])
        assert {name: repr(getattr(pred, name)) for name in field_names(pred)} == FROZEN_PREDICTIONS[case]

    @pytest.mark.parametrize("case", sorted(FROZEN_PREDICTIONS))
    def test_active_click_probability_is_within_4_ulps(self, cases, case):
        """``p_click / duty``, the chance that an active gate fires an arm,
        against a 60-digit ``decimal`` value of ``1 - exp(-a) (1 - p_dark)``,
        a the photons reaching that detector.  The form that computed the
        product and took it from 1 was 2.4e-14 to 1.25e-13 relative off on
        the cases without dark counts (160 to 1,000 ulps);
        ``-expm1(-L)`` of the summed exponent is within 1.6 ulps."""
        chain, pump = cases[case]
        rec, pred = cm.evaluate(chain, pump), cm.predict(chain, pump)
        with decimal.localcontext() as context:
            context.prec = 60
            for arm, a, detector in (
                ("signal", rec.detected_signal, chain.detector_signal),
                ("idler", rec.detected_idler, chain.detector_idler),
            ):
                exact = 1 - (-Decimal(a)).exp() * (1 - Decimal(detector.dark_prob_per_gate))
                active = getattr(pred, f"p_click_{arm}") / getattr(pred, f"duty_{arm}")
                ulps = abs(Decimal(active) - exact) / Decimal(math.ulp(float(exact)))
                assert ulps <= 4, (arm, float(ulps))


class TestSchema:
    def test_every_preset_validates(self):
        for name in presets.preset_names():
            cfg.validate_config(presets.get_preset(name))

    @settings(max_examples=40, deadline=None)
    @given(
        where=st.sampled_from(OBJECT_PATHS),
        key=st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1, max_size=16),
    )
    # detector keys of older config files: the pump is the only clock
    @example(where=("wg-i", ("detectors", "signal")), key="gate_rate_mhz")
    @example(where=("wg-i", ("detectors", "idler")), key="gate_rate_mhz")
    @example(where=("awg", ("detectors", "signal")), key="gate_width_ns")
    @example(where=("awg", ("detectors", "idler")), key="gate_width_ns")
    def test_unknown_key_exits_2_naming_it(self, tmp_dir, where, key):
        name, path = where
        document = copy.deepcopy(DOCUMENTS[name])
        target = _at(document, path)
        assume(key not in KNOWN_KEYS and key not in target)
        target[key] = 1.0
        with pytest.raises(cfg.ConfigError, match=repr(key)):
            cfg.validate_config(document)
        code, err = _cli_predict(tmp_dir, document)
        assert code == cli.EXIT_CONFIG
        assert repr(key) in err

    @settings(max_examples=30, deadline=None)
    @given(entry=st.sampled_from(UNIT_KEYS))
    def test_key_without_unit_exits_2_naming_it(self, tmp_dir, entry):
        # "rep_rate" for "rep_rate_mhz", "loss" for "loss_db_per_cm", ...
        name, path, key, bare = entry
        document = copy.deepcopy(DOCUMENTS[name])
        target = _at(document, path)
        target[bare] = target.pop(key)
        with pytest.raises(cfg.ConfigError, match=repr(bare)):
            cfg.validate_config(document)
        code, err = _cli_predict(tmp_dir, document)
        assert code == cli.EXIT_CONFIG
        assert repr(bare) in err

    @pytest.mark.parametrize(
        "name, path, key, value, named",
        [
            ("wg-i", ("detectors", "idler"), "dark_rate_khz", 1e5, "detectors/idler: dark_rate_khz: dark_prob_per_gate"),
            ("wg-i", ("pump",), "fwhm_ps", 20000.0, "pump: rep_rate_mhz, fwhm_ps: rep_rate_hz"),
            ("wg-i", ("pump",), "peak_power_mw", 1e308, "pump: 'peak_power_mw'"),
            ("wg-i", ("demux", "filters", "signal"), "bandwidth_ghz", 1e300, "demux/filters/signal: 'bandwidth_ghz'"),
            ("awg", ("demux", "awg"), "spacing_ghz", 1e308, "demux/awg: 'spacing_ghz'"),
            ("wg-i", ("detectors", "idler"), "dead_time_us", 1e308, "detectors/idler: 'dead_time_us'"),
            ("wg-i", ("demux", "filters", "idler"), "center_wavelength_nm", 1e-310, "center_wavelength_nm"),
        ],
        ids=[
            "dark-rate-at-the-pump-rate",
            "duty-cycle-above-one",
            "peak-power-overflows",
            "filter-bandwidth-overflows",
            "awg-spacing-overflows",
            "dead-time-overflows",
            "center-frequency-overflows",
        ],
    )
    def test_out_of_range_value_exits_2_naming_its_key(self, tmp_dir, name, path, key, value, named):
        # each value is a number within its key's own bound; the physical
        # check of the domain object built from it fails, and names the key
        # being built.  The last five are finite numbers whose SI value is
        # not: an infinite peak power, bandwidth, channel spacing, dead time
        # in gates or center frequency; each is named by its key
        document = copy.deepcopy(DOCUMENTS[name])
        _at(document, path)[key] = value
        with pytest.raises(cfg.ConfigError, match=named):
            cfg.build_experiment(document)
        code, err = _cli_predict(tmp_dir, document)
        assert code == cli.EXIT_CONFIG
        assert named in err

    def test_duty_cycle_that_underflows_to_zero_exits_2(self, tmp_dir):
        # 1e-300 MHz times 1e-300 ps is a duty cycle of 0.0, which the pump
        # rejects as it rejects one above 1: no peak power divides by it.  No
        # dark rate or dead time, which the rep rate would turn into gates
        document = copy.deepcopy(DOCUMENTS["wg-i"])
        document["pump"] = {"wavelength_nm": 1551.1, "rep_rate_mhz": 1e-300, "fwhm_ps": 1e-300, "average_power_mw": 0.037}
        for arm in document["detectors"].values():
            arm.update(dark_rate_khz=0.0, dead_time_us=0.0)
        code, err = _cli_predict(tmp_dir, document)
        assert code == cli.EXIT_CONFIG
        assert "error: pump: rep_rate_mhz, fwhm_ps: rep_rate_hz * pulse_fwhm_s, the duty cycle, must be in (0, 1]" in err

    @pytest.mark.parametrize("name, path, key, value, named", list(_bad_leaf_cases()))
    def test_bad_leaf_exits_2_naming_it(self, tmp_dir, name, path, key, value, named):
        document = copy.deepcopy(DOCUMENTS[name])
        _at(document, path)[key] = value
        with pytest.raises(cfg.ConfigError, match=re.escape(named)):
            cfg.validate_config(document)
        code, err = _cli_predict(tmp_dir, document)
        assert code == cli.EXIT_CONFIG
        assert named in err

    @pytest.mark.parametrize("name, path, key", [entry[:3] for entry in LEAVES], ids=lambda v: v if isinstance(v, str) else None)
    def test_every_exit_2_names_the_document_key(self, tmp_dir, name, path, key):
        # each leaf of both presets, and the optional keys they leave out, set
        # to -1, 0, 1e-320 and 1e308: predict prints numbers, exits 3 on a
        # numerical failure, or exits 2 with a message that names the key as
        # the document spells it, not only the record field it becomes (154
        # exit-2 messages; 80 named a field or a description before each
        # record's error named its field and the builder mapped it to its key)
        for value in (-1.0, 0.0, 1e-320, 1e308):
            document = copy.deepcopy(DOCUMENTS[name])
            _at(document, path)[key] = value
            code, err = _cli_predict(tmp_dir, document)
            assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERICAL), (value, err)
            if code == cli.EXIT_CONFIG:
                assert re.search(rf"(?<!\w){re.escape(key)}(?!\w)", err), (value, err)

    @pytest.mark.parametrize(
        "name, path, key, value, named",
        [
            ("wg-i", (), "pump", [], "pump"),
            ("wg-i", (), "segments", {}, "segments"),
            ("wg-i", (), "segments", [], "segment"),
            ("wg-i", (), "detectors", None, "detectors"),
            ("wg-i", ("detectors",), "signal", "x", "detectors/signal"),
            ("wg-i", ("noise",), "idler", None, "noise/idler"),
            ("awg", ("post_filters",), "signal", None, "post_filters/signal"),
            ("awg", ("post_filters",), "idler", [3.0], "post_filters/idler/0"),
            ("wg-i", ("demux",), "filters", [], "demux/filters"),
            ("wg-i", ("demux",), "awg", DOCUMENTS["awg"]["demux"]["awg"], "demux"),
            ("wg-i", ("pump",), "average_power_mw", 10.0, "pump"),
            ("awg", ("demux", "awg"), "channels", 16.5, "channels"),
        ],
        ids=lambda v: v if isinstance(v, str) else None,
    )
    def test_bad_structure_exits_2_naming_it(self, tmp_dir, name, path, key, value, named):
        # an object, a list or an integer of the wrong kind, and two keys of
        # which exactly one must be given
        document = copy.deepcopy(DOCUMENTS[name])
        _at(document, path)[key] = value
        code, err = _cli_predict(tmp_dir, document)
        assert code == cli.EXIT_CONFIG
        assert named in err

    @pytest.mark.parametrize(
        "name, path, key",
        [
            ("wg-i", (), "pump"),
            ("wg-i", ("pump",), "fwhm_ps"),
            ("wg-i", ("segments", 0), "kind"),
            ("awg", ("demux", "awg"), "spacing_ghz"),
            ("wg-i", ("detectors", "idler"), "qe"),
        ],
        ids=lambda v: v if isinstance(v, str) else None,
    )
    def test_missing_required_key_exits_2_naming_it(self, tmp_dir, name, path, key):
        document = copy.deepcopy(DOCUMENTS[name])
        del _at(document, path)[key]
        code, err = _cli_predict(tmp_dir, document)
        assert code == cli.EXIT_CONFIG
        assert f"missing key {key!r}" in err

    def test_average_power_builds_as_the_peak_power(self):
        # wg-i's 37 mW peak at 100 MHz and 200 ps is 0.74 mW average
        document = copy.deepcopy(DOCUMENTS["wg-i"])
        del document["pump"]["peak_power_mw"]
        document["pump"]["average_power_mw"] = 0.74
        chain, pump = cfg.build_experiment(document)
        preset_chain, preset_pump = cfg.build_experiment(DOCUMENTS["wg-i"])
        assert chain == preset_chain
        assert pump.average_power_w == pytest.approx(preset_pump.average_power_w, rel=1e-12, abs=0.0)
        pred, preset_pred = cm.predict(chain, pump), cm.predict(preset_chain, preset_pump)
        for name in field_names(pred):
            assert getattr(pred, name) == pytest.approx(getattr(preset_pred, name), rel=1e-12, abs=0.0), name

    @pytest.mark.parametrize("path, key", [(("pump",), "peak_power_mw"), (("demux",), "filters")])
    def test_neither_of_two_keys_exits_2(self, tmp_dir, path, key):
        document = copy.deepcopy(DOCUMENTS["wg-i"])
        del _at(document, path)[key]
        code, err = _cli_predict(tmp_dir, document)
        assert code == cli.EXIT_CONFIG
        assert "/".join(path) in err

    def test_whole_float_channels_build_the_same_chain(self):
        # a JSON integer may be written 16.0; the channel offsets are signed
        document = copy.deepcopy(DOCUMENTS["awg"])
        document["demux"]["awg"] |= {"channels": 16.0, "signal_channel": 3.0, "idler_channel": -3.0}
        built = cfg.build_experiment(document)
        assert built == cfg.build_experiment(DOCUMENTS["awg"])
        assert cm.predict(*built) == cm.predict(*cfg.build_experiment(DOCUMENTS["awg"]))


class TestLoadFile:
    def test_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "awg.json"
        path.write_text("\ufeff" + json.dumps(DOCUMENTS["awg"]), encoding="utf-8")
        assert cfg.load_file(path) == DOCUMENTS["awg"]

    def test_file_not_utf8_is_named(self, tmp_path):
        path = tmp_path / "awg.json"
        document = DOCUMENTS["awg"] | {"description": "d\xe9bit"}
        path.write_bytes(json.dumps(document, ensure_ascii=False).encode("latin-1"))
        with pytest.raises(cfg.ConfigError, match=re.escape(f"configuration {str(path)!r} is not UTF-8")):
            cfg.load_file(path)

    @pytest.mark.parametrize(
        "text, match",
        [
            (None, "cannot read configuration"),
            ('{"pump": ', "configuration is not valid JSON"),
            ("[]", "configuration root must be a JSON object"),
        ],
        ids=["missing", "invalid-json", "list"],
    )
    def test_unreadable_file_exits_2(self, tmp_path, capsys, text, match):
        path = tmp_path / "chain.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(cfg.ConfigError, match=match):
            cfg.load_file(path)
        assert cli.main(["predict", str(path)]) == cli.EXIT_CONFIG
        assert match in capsys.readouterr().err
