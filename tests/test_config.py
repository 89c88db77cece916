import contextlib
import copy
import io
import json
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pairsim import chainmodel as cm
from pairsim import cli
from pairsim import config as cfg
from pairsim import montecarlo as mc
from pairsim import presets

DOCUMENTS = {name: presets.get_preset(name) for name in ("wg-i", "awg")}

# name tokens that state a unit; a key made only of the others names no unit
_UNIT_TOKENS = {"db", "per", "cm", "m", "w", "mw", "mhz", "ghz", "khz", "nm", "ps", "us", "ns"}


def _schema_property_names(schema) -> set[str]:
    names = set()
    if isinstance(schema, dict):
        names |= set(schema.get("properties", {}))
        for value in schema.values():
            names |= _schema_property_names(value)
    elif isinstance(schema, list):
        for value in schema:
            names |= _schema_property_names(value)
    return names


def _object_paths(node, path=()):
    """Paths of every JSON object in a document, the root included."""
    if isinstance(node, dict):
        yield path
        for key, value in node.items():
            yield from _object_paths(value, (*path, key))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _object_paths(value, (*path, index))


def _unit_keys(node):
    """(object path, key, key without its unit tokens) for every unit-bearing key."""
    for object_path in _object_paths(node):
        target = _at(node, object_path)
        for key, value in target.items():
            bare = "_".join(t for t in key.split("_") if t not in _UNIT_TOKENS)
            if isinstance(value, (int, float)) and bare != key:
                yield object_path, key, bare


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


KNOWN_KEYS = _schema_property_names(cfg.CONFIG_SCHEMA)
OBJECT_PATHS = [(name, path) for name, doc in DOCUMENTS.items() for path in _object_paths(doc)]
UNIT_KEYS = [(name, *entry) for name, doc in DOCUMENTS.items() for entry in _unit_keys(doc)]


@pytest.fixture(scope="module")
def tmp_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("config")


FROZEN_PREDICTIONS = json.loads(Path(__file__).with_name("frozen_predictions.json").read_text())


def frozen_cases() -> dict:
    """(chain, pump) of every case in ``frozen_predictions.json``."""
    cases = {name: cfg.build_experiment(presets.get_preset(name)) for name in presets.preset_names()}
    cases["wg-i, dark 1e5 Hz"] = mc.apply_sweep_value(*cases["wg-i"], "dark", 1e5)
    document = presets.get_preset("wg-i")
    for arm in ("signal", "idler"):
        document["detectors"][arm]["dead_time_us"] = 0.01  # one gate at 100 MHz
    cases["wg-i, 1-gate dead time"] = cfg.build_experiment(document)
    return cases


class TestFrozenPredictions:
    """The repr of every ``RatePrediction`` field, frozen from the model as it
    stood before detectors were stated in pump gates.  The conversion at the
    config boundary must keep every number bit-identical, so the file is not
    regenerated by a change that claims the same output."""

    @pytest.fixture(scope="class")
    def cases(self):
        return frozen_cases()

    @pytest.mark.parametrize("case", sorted(FROZEN_PREDICTIONS))
    def test_every_field_is_bit_identical(self, cases, case):
        pred = cm.predict(*cases[case])
        assert {f.name: repr(getattr(pred, f.name)) for f in fields(pred)} == FROZEN_PREDICTIONS[case]


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
        "path, key, value, named",
        [
            (("detectors", "idler"), "dark_rate_khz", 1e5, "detectors/idler: dark_prob_per_gate"),
            (("pump",), "fwhm_ps", 20000.0, "pump: duty cycle"),
        ],
        ids=["dark-rate-at-the-pump-rate", "duty-cycle-above-one"],
    )
    def test_out_of_range_value_exits_2_naming_its_key(self, tmp_dir, path, key, value, named):
        # the schema passes these values; the physical check of the domain
        # object built from them fails, and names the key being built
        document = copy.deepcopy(DOCUMENTS["wg-i"])
        _at(document, path)[key] = value
        with pytest.raises(cfg.ConfigError, match=named):
            cfg.build_experiment(document)
        code, err = _cli_predict(tmp_dir, document)
        assert code == cli.EXIT_CONFIG
        assert named in err
