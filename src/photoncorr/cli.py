"""Command-line pipeline: simulate, measure, fit, sweep.

Every command reads a JSON config (plus flag overrides), writes its data
files atomically into the output directory, and records a manifest with
the fully resolved configuration, seed, tool version, file paths, and
wall-clock duration. Data files are byte-identical across reruns with
the same inputs and seed; the manifest differs only in its duration
field.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .distributions import SourceParams
from .detector import DetectorParams
from .inference import (
    FitConfig,
    FitConvergenceError,
    FitResult,
    check_n_bootstrap,
    fit_counts,
    reconstruct,
)
from .io import (
    atomic_write_text,
    read_counts,
    sum_difference_to_text,
    sum_difference_view,
    write_counts,
    write_distribution,
    write_json,
)
from .measures import (
    correlation_report,
    heralded_efficiency,
    mean_interior_ratio,
    product_distance,
    ratio_matrix,
    singular_spectrum,
)
from .montecarlo import SimConfig, normalize, simulate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


class ConfigError(Exception):
    """Malformed or incomplete configuration."""


def _require(config: dict, key: str):
    if key not in config:
        raise ConfigError(f"missing config key {key!r}")
    return config[key]


def _block(config: dict, key: str) -> dict:
    block = _require(config, key)
    if not isinstance(block, dict):
        raise ConfigError(f"config key {key!r} must be an object, got {block!r}")
    return block


def _convert(kind, value, key: str):
    """``kind(value)`` for a config value, with any failure a ConfigError."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"config key {key!r}: not a valid {kind.__name__}: {value!r}") from err


def _source_from_config(config: dict) -> SourceParams:
    src = _block(config, "source")
    try:
        return SourceParams(
            mean_photons=_convert(float, _require(src, "mean_photons"), "mean_photons"),
            correlation=_convert(float, _require(src, "correlation"), "correlation"),
        )
    except ValueError as err:
        raise ConfigError(f"invalid source parameters: {err}") from err


def _detector_from_config(config: dict, key: str) -> DetectorParams:
    det = _block(config, key)
    try:
        return DetectorParams(
            efficiency=_convert(float, _require(det, "efficiency"), "efficiency"),
            dark_mean=_convert(float, _require(det, "dark_mean"), "dark_mean"),
            crosstalk=_convert(float, _require(det, "crosstalk"), "crosstalk"),
        )
    except ValueError as err:
        raise ConfigError(f"invalid {key} parameters: {err}") from err


def _fit_config(config: dict) -> FitConfig:
    # Unknown keys are ignored: configs written for earlier versions carry
    # a "weighting" key.
    fit = _block(config, "fit") if "fit" in config else {}
    default = FitConfig()
    try:
        return FitConfig(
            max_iterations=_convert(
                int, fit.get("max_iterations", default.max_iterations), "max_iterations"),
            convergence_tol=_convert(
                float, fit.get("convergence_tol", default.convergence_tol), "convergence_tol"),
            n_max=_convert(int, fit.get("n_max", default.n_max), "n_max"),
        )
    except ValueError as err:
        raise ConfigError(f"invalid fit configuration: {err}") from err


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as handle:
            config = json.load(handle)
    except OSError:
        raise
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: not valid JSON ({err})") from err
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: top-level config must be an object")
    return config


def _sim_config(config: dict, args) -> SimConfig:
    shots = args.shots if args.shots is not None else config.get("shots")
    seed = args.seed if args.seed is not None else config.get("seed")
    if shots is None:
        raise ConfigError("shots must be given in the config or with --shots")
    if seed is None:
        raise ConfigError("seed must be given in the config or with --seed")
    try:
        return SimConfig(
            source=_source_from_config(config),
            det_h=_detector_from_config(config, "detector_h"),
            det_v=_detector_from_config(config, "detector_v"),
            shots=_convert(int, shots, "shots"),
            seed=_convert(int, seed, "seed"),
            n_max=_convert(int, config.get("n_max", 16), "n_max"),
        )
    except ValueError as err:
        raise ConfigError(str(err)) from err


def _write_manifest(out_dir: str, command: str, resolved: dict, seed,
                    inputs: list[str], outputs: list[str], started: float) -> str:
    path = os.path.join(out_dir, f"{command}_manifest.json")
    write_json(
        {
            "command": command,
            "config": resolved,
            "seed": seed,
            "version": __version__,
            "inputs": inputs,
            "outputs": outputs,
            "duration_seconds": time.time() - started,
        },
        path,
    )
    return path


def _sim_config_dict(sim: SimConfig) -> dict:
    return {
        "source": dataclasses.asdict(sim.source),
        "detector_h": dataclasses.asdict(sim.det_h),
        "detector_v": dataclasses.asdict(sim.det_v),
        "shots": sim.shots,
        "seed": sim.seed,
        "n_max": sim.n_max,
    }


def fit_result_dict(fit: FitResult) -> dict:
    return {
        "mean_photons": fit.source.mean_photons,
        "correlation": fit.source.correlation,
        "detector_h": dataclasses.asdict(fit.det_h),
        "detector_v": dataclasses.asdict(fit.det_v),
        "residual": fit.residual,
        "g_error": fit.g_error,
        "distance_error": fit.distance_error,
        "stage1": dataclasses.asdict(fit.stage1),
    }


def cmd_simulate(args) -> int:
    started = time.time()
    config = _load_config(args.config)
    sim = _sim_config(config, args)
    counts = simulate(sim)
    os.makedirs(args.out, exist_ok=True)
    counts_path = os.path.join(args.out, "counts.csv")
    write_counts(counts, counts_path)
    _write_manifest(
        args.out, "simulate", _sim_config_dict(sim), sim.seed,
        inputs=[args.config] if args.config else [],
        outputs=[counts_path], started=started,
    )
    print(f"wrote {counts_path} ({counts.shots} shots, overflow {counts.overflow})")
    return EXIT_OK


def cmd_measure(args) -> int:
    started = time.time()
    counts = read_counts(args.counts)
    dist = normalize(counts)
    report = correlation_report(dist)
    spectrum = singular_spectrum(dist)
    os.makedirs(args.out, exist_ok=True)
    report_path = os.path.join(args.out, "report.json")
    write_json(
        {
            "mean_interior_ratio": report.mean_interior_ratio,
            "product_distance": report.product_distance,
            "coincidence_ratio": report.coincidence_ratio,
            "lee_nonclassical": report.lee_nonclassical,
            "lee_witness": report.lee_witness,
            "singular_values": [float(s) for s in spectrum.values],
            "n_max": counts.n_max,
            "shots": counts.shots,
            "manifest": "measure_manifest.json",
        },
        report_path,
    )
    sd_path = os.path.join(args.out, "sum_difference.csv")
    atomic_write_text(sd_path, sum_difference_to_text(sum_difference_view(counts.counts)))
    _write_manifest(
        args.out, "measure", {"counts": args.counts}, None,
        inputs=[args.counts], outputs=[report_path, sd_path], started=started,
    )
    print(f"wrote {report_path} and {sd_path}")
    return EXIT_OK


def cmd_fit(args) -> int:
    started = time.time()
    if args.reconstruct is not None and args.reconstruct < 0:
        raise ConfigError(f"--reconstruct must be >= 0, got {args.reconstruct}")
    config = _load_config(args.config)
    fit_cfg = _fit_config(config)
    counts = read_counts(args.counts)
    seed = _convert(int, args.seed if args.seed is not None else config.get("seed", 0), "seed")
    fit = fit_counts(counts, fit_cfg, n_bootstrap=args.bootstrap, seed=seed)
    os.makedirs(args.out, exist_ok=True)
    fit_path = os.path.join(args.out, "fit.json")
    result = fit_result_dict(fit)
    result["manifest"] = "fit_manifest.json"
    write_json(result, fit_path)
    outputs = [fit_path]
    if args.reconstruct is not None:
        recon_path = os.path.join(args.out, "reconstruction.csv")
        write_distribution(reconstruct(fit, args.reconstruct), recon_path)
        outputs.append(recon_path)
    _write_manifest(
        args.out, "fit",
        {
            "counts": args.counts,
            "fit": dataclasses.asdict(fit_cfg),
            "bootstrap": args.bootstrap,
        },
        seed, inputs=[args.counts], outputs=outputs, started=started,
    )
    print(
        f"fitted g={fit.source.correlation:.4f} mean={fit.source.mean_photons:.4f} "
        f"-> {fit_path}"
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    started = time.time()
    config = _load_config(args.config)
    if args.g_list is not None:
        g_values = [float(v) for v in args.g_list.split(",") if v]
    elif "g_list" in config:
        if not isinstance(config["g_list"], list):
            raise ConfigError(f"config key 'g_list' must be a list, got {config['g_list']!r}")
        g_values = [_convert(float, v, "g_list") for v in config["g_list"]]
    else:
        raise ConfigError("g list must be given in the config or with --g-list")
    fit_cfg = _fit_config(config)
    base = _sim_config(config, args)
    check_n_bootstrap(args.bootstrap)
    rows = []
    for index, g in enumerate(g_values):
        sim = dataclasses.replace(
            base, source=dataclasses.replace(base.source, correlation=g), seed=base.seed + index
        )
        counts = simulate(sim)
        dist = normalize(counts)
        gamma = heralded_efficiency(sim.source, sim.det_h, sim.det_v)
        mean_ratio = mean_interior_ratio(ratio_matrix(dist))
        distance = product_distance(singular_spectrum(dist))
        fit = fit_counts(counts, fit_cfg, n_bootstrap=args.bootstrap, seed=sim.seed)
        rows.append(
            (g, gamma, mean_ratio, distance, fit.source.correlation,
             fit.g_error, fit.distance_error)
        )
    os.makedirs(args.out, exist_ok=True)
    sweep_path = os.path.join(args.out, "sweep.csv")
    lines = ["g_true,gamma,mean_interior_ratio,product_distance,g_fitted,g_error,distance_error"]
    for row in rows:
        lines.append(",".join("" if v is None else repr(float(v)) for v in row))
    atomic_write_text(sweep_path, "\n".join(lines) + "\n")
    _write_manifest(
        args.out, "sweep",
        {**_sim_config_dict(base), "g_list": g_values, "bootstrap": args.bootstrap},
        base.seed, inputs=[args.config] if args.config else [],
        outputs=[sweep_path], started=started,
    )
    print(f"wrote {sweep_path} ({len(rows)} rows)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photoncorr",
        description="Two-mode photon-number statistics: simulation, raw-data "
        "correlation measures, and least-squares state reconstruction.",
    )
    parser.add_argument("--version", action="version", version=f"photoncorr {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate a counting acquisition")
    p_sim.add_argument("--config", required=True, help="JSON config with source/detectors")
    p_sim.add_argument("--seed", type=int, default=None, help="override config seed")
    p_sim.add_argument("--shots", type=int, default=None, help="override config shots")
    p_sim.add_argument("--out", default=".", help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_meas = sub.add_parser("measure", help="correlation measures from a counts file")
    p_meas.add_argument("counts", help="counts CSV produced by simulate")
    p_meas.add_argument("--out", default=".", help="output directory")
    p_meas.set_defaults(func=cmd_measure)

    p_fit = sub.add_parser("fit", help="two-stage least-squares fit of a counts file")
    p_fit.add_argument("counts", help="counts CSV produced by simulate")
    p_fit.add_argument("--config", default=None, help="JSON config with a 'fit' section")
    p_fit.add_argument("--bootstrap", type=int, default=0, metavar="N",
                       help="number of Poisson resamples for error bars")
    p_fit.add_argument("--seed", type=int, default=None, help="bootstrap seed")
    p_fit.add_argument("--out", default=".", help="output directory")
    p_fit.add_argument("--reconstruct", type=int, default=None, metavar="N_MAX",
                       help="also write the reconstructed source distribution")
    p_fit.set_defaults(func=cmd_fit)

    p_sweep = sub.add_parser("sweep", help="simulate+measure+fit over a list of g values")
    p_sweep.add_argument("--config", required=True, help="base JSON config")
    p_sweep.add_argument("--g-list", default=None, help="comma-separated g values")
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--shots", type=int, default=None)
    p_sweep.add_argument("--bootstrap", type=int, default=0, metavar="N")
    p_sweep.add_argument("--out", default=".", help="output directory")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (FitConvergenceError, np.linalg.LinAlgError, FloatingPointError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
