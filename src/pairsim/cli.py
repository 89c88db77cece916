"""Command-line front end.

Subcommands: predict (closed-form rates), simulate (per-pulse counting run),
sweep (grid over one physical variable, optionally with counting runs), fit
(parameter recovery from CSV rate data), reproduce (built-in study curves).

Exit codes: 0 success, 2 configuration or usage error, 3 numerical failure
(a fit that does not converge, or a value the model cannot compute).
Outputs are CSV with a '#'-prefixed metadata header, or JSON for single-shot
results; both are bit-identical for identical (config, flags, seed, version).
``main`` builds one parser per process and may be called repeatedly in it.
Each command imports numpy, ``montecarlo`` and ``fitting`` only if it uses
them, so ``predict``, ``--help`` and ``--version`` start without numpy.
Commands that build no array load neither numpy nor ``dataclasses``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from typing import TYPE_CHECKING, Callable

from . import __version__
from . import chainmodel as cm
from . import config as cfg
from . import presets
from .elementwise import power
from .records import Record, field_names, replace

if TYPE_CHECKING:  # for annotations; the commands import what they run
    import numpy as np

    from . import montecarlo

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# each of chainmodel.SWEEP_VARIABLES: SI per unit of its grid, figure and data-file values, and its column label
_VARIABLES = {
    "l_si": (1e-2, "l_si_cm"),
    "l_siox": (1e-2, "l_siox_cm"),
    "pp": (1e-3, "pp_mw"),
    "awg_loss": (1.0, "awg_loss_db"),
    "dark": (1.0, "dark_rate_hz"),
}


class ResultTable(Record):
    """Column-labeled rows of numbers plus a provenance header."""

    columns: list[str]
    rows: list[list[float]]
    metadata: dict[str, str]

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        for key, value in self.metadata.items():
            buf.write(f"# {key} = {value}\n")
        csv.writer(buf, lineterminator="\n").writerow(self.columns)
        if self.rows:
            # json's C encoder writes every number by float.__repr__ or int's
            # str, but NaN and +-inf by their JSON names; a number needs no quotes
            text = json.dumps(self.rows, separators=(",", ":"))[2:-2].replace("],[", "\n")
            buf.write(text.replace("NaN", "nan").replace("Infinity", "inf") + "\n")
        return buf.getvalue()

    def to_json_text(self) -> str:
        """The text of ``json.dumps({"metadata", "columns", "rows"}, indent=2)``,
        byte for byte, from json's C encoder, which json uses only without
        ``indent``: each container is encoded with its line break and indent
        as the item separator, and its brackets are laid out around it.
        Metadata values and cells are scalars."""
        rows = "[]"
        if self.rows:
            # a real line break never occurs inside an encoded string, so each
            # "],<break>[" ends one row and starts the next; an empty row
            # comes out as "[<break>]" and is written "[]"
            text = json.dumps(self.rows, separators=(",\n      ", ": "))[2:-2]
            text = text.replace("],\n      [", "\n    ],\n    [\n      ")
            rows = f"[\n    [\n      {text}\n    ]\n  ]".replace("[\n      \n    ]", "[]")
        return (
            f'{{\n  "metadata": {_json_block(self.metadata)},'
            f'\n  "columns": {_json_block(self.columns)},\n  "rows": {rows}\n}}'
        )


def _json_block(value: dict | list) -> str:
    """A container of scalars as ``json.dumps(..., indent=2)`` writes it one
    level deep."""
    text = json.dumps(value, separators=(",\n    ", ": "))
    return text[0] + "\n    " + text[1:-1] + "\n  " + text[-1] if value else text


def _base_metadata(command: str, config_hash: str, seed: int | None = None) -> dict[str, str]:
    meta = {
        "tool": "pairsim",
        "version": __version__,
        "command": command,
        "config_hash": config_hash,
    }
    if seed is not None:
        meta["seed"] = str(seed)
    return meta


def _write_output(args, table: ResultTable) -> None:
    if args.out:
        text = table.to_json_text() if args.out.endswith(".json") else table.to_csv_text()
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(table.to_csv_text())


def _load_document(args, parser: argparse.ArgumentParser) -> dict:
    if getattr(args, "preset", None) and getattr(args, "config", None):
        parser.error("give a configuration file or --preset, not both")
    if getattr(args, "preset", None):
        try:
            return presets.get_preset(args.preset)
        except KeyError as exc:
            parser.error(str(exc))
    if not getattr(args, "config", None):
        parser.error("a configuration file or --preset is required")
    return cfg.load_file(args.config)


def _parse_grid(spec: str) -> np.ndarray:
    """Grid syntax: ``start:stop:count`` (linear) or ``log:start:stop:count``,
    with finite endpoints and a count that numpy can allocate."""
    import numpy as np
    parts = spec.split(":")
    log = parts[0] == "log"
    try:
        if len(parts) != log + 3:
            raise ValueError("expected start:stop:count after an optional log:")
        start, stop, count = float(parts[log]), float(parts[log + 1]), int(parts[log + 2])
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ValueError("endpoints must be finite")
        if log and (start <= 0 or stop <= 0):
            raise ValueError("log grids need positive endpoints")
        if count < 1:
            raise ValueError("count must be >= 1")
        with np.errstate(all="ignore"):
            grid = (np.geomspace if log else np.linspace)(start, stop, count)
        if not np.isfinite(grid).all():
            raise ValueError("grid values overflow")
        return grid
    except (ValueError, MemoryError) as exc:
        raise cfg.ConfigError(f"bad grid spec {spec!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands


def _report(args, columns: list[str], row: list, metadata: dict[str, str]) -> int:
    """Print each ``column = value`` (a count exactly, a float to 8 digits) and, on
    ``--out``, write the row as a one-row table."""
    for key, value in zip(columns, row):
        shown = f"{value}" if isinstance(value, int) else "undefined" if math.isnan(value) else f"{value:.8g}"
        print(f"{key} = {shown}")
    if args.out:
        _write_output(args, ResultTable(columns, [row], metadata))
    return EXIT_OK


def cmd_predict(args, parser) -> int:
    document = _load_document(args, parser)
    pred = cm.predict(*cfg.build_experiment(document))
    columns = list(field_names(pred))
    meta = _base_metadata("predict", cfg.config_hash(document))
    return _report(args, columns, [getattr(pred, name) for name in columns], meta)


# the CountSummary fields and properties simulate writes, before the measured duties
_SUMMARY_CELLS = (
    "n_pulses", "singles_signal", "singles_idler", "coincidences", "accidentals",
    "singles_rate_signal_hz", "singles_rate_idler_hz", "coincidence_rate_hz", "accidental_rate_hz",
    "car", "car_stderr",
)


def _summary_cells(summary: montecarlo.CountSummary, names: tuple[str, ...]) -> list:
    """The named values of a counting run; a CAR not yet defined is NaN."""
    return [math.nan if (value := getattr(summary, name)) is None else value for name in names]


def _counting_run(args, parser) -> tuple[dict, cm.ExperimentChain, cm.PumpConfig, montecarlo.TrialConfig]:
    """The document, chain, pump and trial of ``simulate`` or ``sweep``.

    ``--no-dead-time`` zeroes both detectors' dead gates on the chain, so
    that ``predict`` and the counting run read one chain.
    """
    from . import montecarlo
    document = _load_document(args, parser)
    chain, pump = cfg.build_experiment(document)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    for flag, value in (
        ("--pulses", args.pulses),
        ("--threads", args.threads),
        ("--accidental-offset", args.accidental_offset),
    ):
        if value < 1:
            parser.error(f"{flag} must be a positive integer")
    if args.pulses > montecarlo.MAX_PULSES:
        parser.error("--pulses must be at most 2**62")
    try:
        cm.no_pair_excess(0.0, args.thermal_modes)
    except ValueError as exc:
        parser.error(f"--thermal-modes: {exc}")
    if args.no_dead_time:
        signal, idler = (replace(d, dead_gates=0) for d in (chain.detector_signal, chain.detector_idler))
        chain = replace(chain, detector_signal=signal, detector_idler=idler)
    trial = montecarlo.TrialConfig(
        n_pulses=args.pulses,
        seed=args.seed,
        accidental_offset=args.accidental_offset,
        pair_statistics=args.pair_statistics,
        thermal_modes=args.thermal_modes,
    )
    return document, chain, pump, trial


def cmd_simulate(args, parser) -> int:
    from . import montecarlo
    document, chain, pump, trial = _counting_run(args, parser)
    summary = montecarlo.simulate(chain, pump, trial, threads=args.threads)
    meta = _base_metadata("simulate", cfg.config_hash(document), seed=trial.seed)
    meta["rng_stream"] = montecarlo.RNG_STREAM
    row = _summary_cells(summary, _SUMMARY_CELLS) + list(montecarlo.measured_gate_duty(summary))
    return _report(args, [*_SUMMARY_CELLS, "duty_signal", "duty_idler"], row, meta)


# the counting-run values a sweep row adds, each as mc_<name>
_SWEEP_MC_CELLS = ("singles_signal", "singles_idler", "coincidences", "accidentals", "car", "car_stderr")


def cmd_sweep(args, parser) -> int:
    from . import montecarlo
    document, chain, pump, trial = _counting_run(args, parser)  # checked even when nothing is simulated
    grid_user = _parse_grid(args.grid)
    si_per_unit, label = _VARIABLES[args.var]
    grid_si = grid_user * si_per_unit
    try:
        swept = cm.apply_sweep_value(chain, pump, args.var, grid_si)
    except ValueError:
        # name the first grid value the chain cannot take
        for user, si in zip(grid_user, grid_si):
            try:
                cm.apply_sweep_value(chain, pump, args.var, float(si))
            except ValueError as exc:
                raise cfg.ConfigError(f"--var {args.var} at --grid value {user:g}: {exc}") from exc
        raise

    pred_cols = [
        "mu_pair_generated", "mu_pair_out", "mu_signal", "mu_idler",
        "p_click_signal", "p_click_idler", "p_coincidence", "p_accidental", "car",
    ]
    columns = [label] + pred_cols
    pred = cm.predict(*swept, thermal_modes=trial.pair_modes)
    rows = _stack_columns([grid_user] + [getattr(pred, name) for name in pred_cols])

    meta = _base_metadata("sweep", cfg.config_hash(document), seed=args.seed if args.mc else None)
    if args.mc:
        columns += [f"mc_{name}" for name in _SWEEP_MC_CELLS]
        meta["rng_stream"] = montecarlo.RNG_STREAM
        runs = montecarlo.sweep(chain, pump, args.var, grid_si, trial, threads=args.threads)
        for row, (_, summary) in zip(rows, runs):
            row += _summary_cells(summary, _SWEEP_MC_CELLS)
    meta["variable"] = args.var
    meta["grid"] = args.grid
    table = ResultTable(columns=columns, rows=rows, metadata=meta)
    _write_output(args, table)
    return EXIT_OK


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _read_xy_csv(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """x, y and optional sigma: ``x,y[,sigma]`` without a header; under a
    header a third column must be named ``sigma`` and no other may follow;
    every data row has as many cells as the header, or without one as the
    widest row.  The first line is a header only when no cell of it reads as
    a number, and a UTF-8 byte-order mark before it is dropped.  Any other
    line, one without numeric x and y, with an empty or non-finite cell, or
    with too few or too many cells, is an error naming its number, and so is
    a file that is not UTF-8."""
    import numpy as np
    rows, header = [], None
    for number, line in enumerate(cfg.read_text(path, "data file").split("\n"), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        cells = [c.strip() for c in line.split(",")]
        if "" in cells:
            raise cfg.ConfigError(f"data file line {number}: empty cell: {line!r}")
        row = [_number(c) for c in cells]
        if header is None and not rows and len(cells) >= 2 and row.count(None) == len(row):
            header = cells
            extra = header[3:] if header[2:3] == ["sigma"] else header[2:]
            if extra:
                raise cfg.ConfigError(f"data file column {extra[0]!r} is not x, y or 'sigma'")
        elif None in row or len(row) not in (2, 3):
            raise cfg.ConfigError(f"data file line {number}: expected x,y[,sigma]: {line!r}")
        elif not all(map(math.isfinite, row)):
            raise cfg.ConfigError(f"data file line {number}: non-finite value: {line!r}")
        else:
            rows.append((number, line, row))
    if not rows:
        raise cfg.ConfigError("no numeric rows found in data file")
    n_cols = len(header) if header is not None else max(len(row) for _, _, row in rows)
    for number, line, row in rows:
        if len(row) != n_cols:
            raise cfg.ConfigError(f"data file line {number}: expected {n_cols} cells: {line!r}")
    data = np.array([row for _, _, row in rows], dtype=float)
    sigma = data[:, 2] if n_cols == 3 else None
    return data[:, 0], data[:, 1], sigma


_FIT_MODELS = {
    # model: (role of x, in the data file in the units of _VARIABLES, fitter in fitting)
    "decay": ("l_siox", "fit_sio2_decay"),
    "gamma_alpha": ("l_si", "fit_gamma_alpha"),
    "poly": ("pp", "fit_singles_poly"),
}


def cmd_fit(args, parser) -> int:
    from dataclasses import asdict

    from . import fitting
    x, y, sigma = _read_xy_csv(args.data)
    built = None
    if args.preset or args.config:
        built = cfg.build_experiment(_load_document(args, parser))
    fixed: dict = {}
    if args.model == "gamma_alpha":
        if built is None:
            parser.error("--model gamma_alpha requires --config or --preset for fixed parameters")
        chain, pump = built
        rec = cm.evaluate(chain, pump)
        fixed = {
            "peak_power_w": rec.peak_power_w,
            "pair_bandwidth_hz": rec.pair_bandwidth_hz,
            "pulse_fwhm_s": pump.pulse_fwhm_s,
            "downstream_transmittance": rec.downstream_transmittance,
        }
    role, fitter = _FIT_MODELS[args.model]
    try:
        data = fitting.DataSet(x=x * _VARIABLES[role][0], y=y, sigma=sigma, role=role, fixed_params=fixed)
    except ValueError as exc:
        raise cfg.ConfigError(f"bad data file: {exc}") from exc
    result = getattr(fitting, fitter)(data)

    for name, value in result.params.items():
        print(f"{name} = {value:.10g}  (stderr {result.stderr[name]:.4g})")
    if "alpha_db_per_m" in result.params:
        print(f"alpha_db_per_cm = {result.params['alpha_db_per_m'] / 100.0:.10g}")
    print(f"rss = {result.rss:.6g}")
    print(f"converged = {result.converged}")
    for note in result.notes:
        print(f"note: {note}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"model": args.model, **asdict(result)}, fh, indent=2)
    return EXIT_OK if result.converged else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# built-in study curves


def _pair_rate_past_passive(chain, pump) -> list:
    rec = cm.evaluate(chain, pump)
    return [rec.mu_pair * power(rec.downstream_transmittance, 2)]


def _pair_rate_past_demux(chain, pump) -> list:
    return [cm.evaluate(chain, pump).mu_pair * power(chain.demux.spec.peak_transmittance, 2)]


def _singles(chain, pump) -> list:
    rec = cm.evaluate(chain, pump)
    return [rec.mu_signal, rec.mu_idler]


def _car(chain, pump) -> list:
    return [cm.car_estimate(chain, pump)]


class _Figure(Record):
    """A built-in curve: a grid over one sweep variable on one or more chains.

    Each chain is a preset, optionally with one sweep value applied.
    ``grid`` makes the grid from the numpy module (see ``_figure_grid``).
    ``values`` maps one chain, swept over the whole grid, to its columns
    (arrays, or floats where the variable does not enter); the row is the
    grid value (in the units of ``_VARIABLES``) and then the cells of each
    chain in order.  The metadata names the first chain's preset.
    """

    chains: tuple[tuple[str, tuple[str, float] | None], ...]
    variable: str
    grid: Callable
    columns: tuple[str, ...]
    values: Callable[[cm.ExperimentChain, cm.PumpConfig], list]


_FIGURES = {
    "3a": _Figure(
        (("wg-i", None),),
        "l_siox",
        lambda np: np.arange(0.0, 6.0 + 1e-9, 0.05),
        ("pair_rate_per_pulse",),
        _pair_rate_past_passive,
    ),
    "3b": _Figure(
        (("wg-i", None),),
        "l_si",
        lambda np: np.arange(0.30, 6.0 + 1e-9, 0.01),
        ("pair_rate_per_pulse",),
        _pair_rate_past_passive,
    ),
    "3c": _Figure(
        (("wg-i", None),),
        "pp",
        lambda np: np.geomspace(0.5, 50.0, 60),
        ("singles_signal_per_pulse", "singles_idler_per_pulse"),
        _singles,
    ),
    "3d": _Figure(
        (("wg-i", None), ("wg-v", None), ("wg-vi", None)),
        "pp",
        lambda np: np.geomspace(1.0, 60.0, 50),
        ("car_wg_i", "car_wg_v", "car_wg_vi"),
        _car,
    ),
    "5a": _Figure(
        (("awg", None),),
        "pp",
        lambda np: np.geomspace(1.0, 60.0, 50),
        ("pair_rate_per_pulse",),
        _pair_rate_past_demux,
    ),
    "5b": _Figure(
        (("awg", None), ("awg", ("awg_loss", 0.0)), ("awg", ("dark", 20.0))),
        "pp",
        lambda np: np.geomspace(1.0, 60.0, 60),
        ("car", "car_no_demux_loss", "car_low_dark"),
        _car,
    ),
}
FIGURES = tuple(_FIGURES)


@functools.cache
def _figure_grid(name: str) -> np.ndarray:
    """A figure's grid, built once per process at first use and read-only."""
    import numpy as np
    grid = _FIGURES[name].grid(np)
    grid.flags.writeable = False
    return grid


def _stack_columns(columns: list) -> list[list[float]]:
    """Rows of float cells from columns that are grid arrays or single floats."""
    import numpy as np
    return np.column_stack(np.broadcast_arrays(*columns)).tolist()


@functools.cache
def _built_preset(name: str) -> tuple[str, cm.ExperimentChain, cm.PumpConfig]:
    """A built-in preset's config hash, chain and pump, built once per process:
    the presets are constants and the chain and pump records are frozen."""
    document = presets.get_preset(name)
    return (cfg.config_hash(document), *cfg.build_experiment(document))


def _figure_table(name: str) -> ResultTable:
    figure, grid = _FIGURES[name], _figure_grid(name)
    si_per_unit, label = _VARIABLES[figure.variable]
    grid_si = grid * si_per_unit
    columns = [grid]
    for preset, override in figure.chains:
        _, chain, pump = _built_preset(preset)
        if override is not None:
            chain, pump = cm.apply_sweep_value(chain, pump, *override)
        columns += figure.values(*cm.apply_sweep_value(chain, pump, figure.variable, grid_si))
    meta = _base_metadata("reproduce", _built_preset(figure.chains[0][0])[0])
    meta["figure"] = name
    return ResultTable([label, *figure.columns], _stack_columns(columns), meta)


def cmd_reproduce(args, parser) -> int:
    table = _figure_table(args.figure)
    _write_output(args, table)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_config_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("config", nargs="?", help="path to a JSON experiment configuration")
    sub.add_argument("--preset", help="name of a built-in configuration")


def _add_mc_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--pulses", type=int, default=1_000_000, help="number of pump pulses")
    sub.add_argument("--seed", type=int, default=0, help="master random seed")
    sub.add_argument("--threads", type=int, default=1, help="worker threads")
    sub.add_argument("--accidental-offset", type=int, default=1, help="accidental gate offset")
    sub.add_argument(
        "--no-dead-time", action="store_true", help="zero both detectors' dead time, in the predictions and the counts"
    )
    sub.add_argument(
        "--pair-statistics", choices=cm.PAIR_STATISTICS, default="poisson",
        help="pair-number law per pulse; thermal spreads it over --thermal-modes modes.  Sweep "
        "predictions follow it; the predict subcommand stays Poisson",
    )
    sub.add_argument(
        "--thermal-modes", type=int, default=24,
        help="thermal modes; 24 is the wg presets' 120 GHz pair bandwidth times their 200 ps "
        "pulse length (the product is 12.04 on awg)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairsim",
        description="Photon-pair experiment simulator: closed-form rates, "
        "per-pulse counting runs, parameter sweeps and fits.",
    )
    parser.add_argument("--version", action="version", version=f"pairsim {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("predict", help="closed-form rate prediction")
    _add_config_arguments(p)
    p.add_argument("--out", help="write result to a .json or .csv file")
    p.set_defaults(func=cmd_predict)

    p = subs.add_parser("simulate", help="per-pulse counting run")
    _add_config_arguments(p)
    _add_mc_arguments(p)
    p.add_argument("--out", help="write result to a .json or .csv file")
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("sweep", help="grid over one physical variable")
    _add_config_arguments(p)
    p.add_argument("--var", required=True, choices=cm.SWEEP_VARIABLES)
    p.add_argument(
        "--grid",
        required=True,
        help="start:stop:count or log:start:stop:count, in the unit the column label names: "
        + ", ".join(label for _, label in _VARIABLES.values()),
    )
    p.add_argument("--mc", action="store_true", help="add a counting run per grid point")
    _add_mc_arguments(p)
    p.add_argument("--out", help="write table to a .json or .csv file")
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("fit", help="fit model parameters to CSV data")
    p.add_argument("data", help="CSV with columns x,y[,sigma]")
    p.add_argument("--model", required=True, choices=_FIT_MODELS)
    p.add_argument("--config", help="configuration supplying fixed parameters")
    p.add_argument("--preset", help="preset supplying fixed parameters")
    p.add_argument("--out", help="write fit result as JSON")
    p.set_defaults(func=cmd_fit)

    p = subs.add_parser("reproduce", help="emit a built-in study curve")
    p.add_argument("--figure", required=True, choices=FIGURES)
    p.add_argument("--out", help="write table to a .json or .csv file")
    p.set_defaults(func=cmd_reproduce)

    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:  # built on the first call, not at import
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args, _parser)
    except (cfg.ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
