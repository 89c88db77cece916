import contextlib
import copy
import io
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pairsim import cli
from pairsim import config as cfg
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


class TestGateRate:
    @pytest.mark.parametrize("arm", ["signal", "idler"])
    def test_mismatch_is_a_config_error_naming_the_key(self, arm, tmp_dir):
        document = copy.deepcopy(DOCUMENTS["wg-i"])
        document["detectors"][arm]["gate_rate_mhz"] = 50.0
        with pytest.raises(cfg.ConfigError, match=rf"detectors\.{arm}\.gate_rate_mhz"):
            cfg.build_experiment(document)
        code, err = _cli_predict(tmp_dir, document)
        assert code == cli.EXIT_CONFIG
        assert f"detectors.{arm}.gate_rate_mhz" in err

    def test_matching_rate_builds(self):
        chain, pump = cfg.build_experiment(DOCUMENTS["wg-i"])
        assert chain.detector_signal.gate_rate_hz == pump.rep_rate_hz


class TestSchema:
    def test_every_preset_validates(self):
        for name in presets.preset_names():
            cfg.validate_config(presets.get_preset(name))

    @settings(max_examples=40, deadline=None)
    @given(
        where=st.sampled_from(OBJECT_PATHS),
        key=st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1, max_size=16),
    )
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
