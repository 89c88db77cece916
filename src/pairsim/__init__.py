"""Photon-pair experiment simulator; import from chainmodel, awg, config, presets, montecarlo, fitting or cli."""

__version__ = "0.1.0"
