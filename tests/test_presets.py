import math

import pytest

from pairsim import chainmodel as cm
from pairsim import cli, presets
from pairsim import config as cfg


@pytest.mark.parametrize("name", presets.preset_names())
def test_every_preset_builds(name):
    document = presets.get_preset(name)
    chain, pump = cfg.build_experiment(document)
    assert chain.detector_signal.quantum_efficiency == document["detectors"]["signal"]["qe"]
    assert pump.rep_rate_hz == document["pump"]["rep_rate_mhz"] * 1e6
    assert math.isfinite(cm.predict(chain, pump).car)


@pytest.mark.parametrize("name", presets.preset_names())
def test_each_copy_is_fresh(name):
    document = presets.get_preset(name)
    signal, idler = document["detectors"]["signal"], document["detectors"]["idler"]
    before = dict(idler)
    signal["qe"] = 0.99
    signal["dead_time_us"] = 123.0
    assert idler == before
    assert presets.get_preset(name)["detectors"]["signal"] == before


def test_unknown_name_lists_the_presets():
    with pytest.raises(KeyError) as exc:
        presets.get_preset("nope")
    for name in presets.preset_names():
        assert name in str(exc.value)


def test_unknown_preset_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["predict", "--preset", "nope"])
    assert exc.value.code == cli.EXIT_CONFIG
    assert "unknown preset 'nope'" in capsys.readouterr().err
