"""Command-line front end: config parsing, orchestration, artifact output.

Every command reads one JSON config (strictly validated, unknown fields
rejected), resolves the effective seed (--seed flag beats the TOOMLAB_SEED
environment variable, which beats the config), runs the requested
computation, and writes artifacts atomically (temp file + rename) with the
fully resolved config embedded, so re-running an embedded config reproduces
the artifact byte for byte.  Timestamps never enter artifacts; they go to a
sidecar toomlab.log.  Exit codes: 0 success (or eroder verdict), 2 the
non-eroder verdict from `check`, 1 any error.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import math
import os
import sys
import tempfile
from fractions import Fraction
from typing import Any, Optional, Sequence

import numpy as np

from . import bounds, certify, engine, oracle, rules, stats
from .errors import ToomlabError, ConfigError

SEED_ENV = "TOOMLAB_SEED"


# --------------------------------------------------------------------------
# config validation

_OPT = object()


def _validate(config: dict, schema: dict[str, tuple], command: str) -> dict:
    if not isinstance(config, dict):
        raise ConfigError(f"{command} config must be a JSON object")
    unknown = set(config) - set(schema)
    if unknown:
        raise ConfigError(f"unknown {command} config fields: {sorted(unknown)}")
    out = {}
    for name, (kind, default) in schema.items():
        if name in config:
            out[name] = _coerce(config[name], kind, name)
        elif default is _OPT:
            raise ConfigError(f"{command} config requires field {name!r}")
        else:
            out[name] = default
    return out


def _coerce(value: Any, kind: str, name: str) -> Any:
    try:
        if kind == "str":
            if not isinstance(value, str):
                raise ValueError("expected string")
            return value
        if kind == "int":
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError("expected integer")
            return value
        if kind == "float":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError("expected number")
            value = float(value)
            # json reads NaN and Infinity, which no artifact may carry
            if not math.isfinite(value):
                raise ValueError(f"expected a finite number, got {value}")
            return value
        if kind == "bool":
            if not isinstance(value, bool):
                raise ValueError("expected boolean")
            return value
        if kind.endswith("_list") and not isinstance(value, list):
            raise ValueError("expected a list")
        if kind == "int_list":
            return [_coerce(x, "int", name) for x in value]
        if kind == "float_list":
            return [_coerce(x, "float", name) for x in value]
        if kind == "site_list":
            return [_coerce(x, "int" if isinstance(x, int) else "int_list", name) for x in value]
        if kind == "noise":
            return engine.noise_from_json(value)
        raise ValueError(f"unhandled kind {kind}")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config field {name!r}: {exc}") from exc


_SCHEMAS = {
    "check": {
        "rule": ("str", _OPT),
        "eps": ("float", 0.0),
        "alpha": ("float", 0.0),
        "eps_prime": ("float", 0.0),
        "K": ("float", 1.0),
        "seed": ("int", 0),
        "out": ("str", "."),
    },
    "erode": {
        "rule": ("str", _OPT),
        "island": ("site_list", _OPT),
        "dims": ("int_list", None),
        "cutoff": ("int", None),
        "snapshot_every": ("int", 0),
        "seed": ("int", 0),
        "out": ("str", "."),
    },
    "simulate": {
        "rule": ("str", _OPT),
        "noise": ("noise", _OPT),
        "dims": ("int_list", _OPT),
        "steps": ("int", _OPT),
        "burn_in": ("int", 0),
        "snapshot_every": ("int", 0),
        "seed": ("int", 0),
        "out": ("str", "."),
    },
    "exact": {
        "rule": ("str", _OPT),
        "noise": ("noise", _OPT),
        "dims": ("int_list", _OPT),
        "window": ("site_list", None),
        "tol": ("float", 1e-10),
        "max_iter": ("int", 10**6),
        # accepted and embedded, with no effect: every chain is either
        # proven to have one invariant law or refused
        "allow_absorbing": ("bool", False),
        "tv_steps": ("int", 100),
        "seed": ("int", 0),
        "out": ("str", "."),
    },
    "correlate": {
        "rule": ("str", _OPT),
        "noise": ("noise", _OPT),
        "dims": ("int_list", _OPT),
        "distances": ("int_list", []),
        "lags": ("int_list", []),
        "samples": ("int", _OPT),
        "burn_in": ("int", 100),
        "seed": ("int", 0),
        "out": ("str", "."),
    },
    "scan": {
        "rule": ("str", _OPT),
        "noise_kind": ("str", "symmetric"),
        "eps_grid": ("float_list", _OPT),
        "dims": ("int_list", _OPT),
        "steps": ("int", _OPT),
        "burn_in": ("int", 0),
        "seed": ("int", 0),
        "out": ("str", "."),
    },
    "divergence": {
        "rule": ("str", _OPT),
        "noise": ("noise", _OPT),
        "dims": ("int_list", _OPT),
        "steps": ("int", _OPT),
        "burn_in": ("int", None),
        "seed": ("int", 0),
        "out": ("str", "."),
    },
}


def _resolved_config(command: str, cfg: dict) -> dict:
    """The effective config embedded in artifacts (JSON-ready, canonical).

    The output directory is a filesystem detail, not a computation
    parameter, so it is left out and artifacts are location-independent.
    """
    out = {"command": command}
    for k, v in cfg.items():
        if k == "out":
            continue
        if isinstance(v, engine.NoiseModel):
            v = engine.noise_to_json(v)
        out[k] = v
    return out


# --------------------------------------------------------------------------
# artifact writing


@contextlib.contextmanager
def _atomic_file(path: str):
    """A binary file handle that replaces path only once the block succeeds."""
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_toomlab_")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write(path: str, data: bytes) -> None:
    with _atomic_file(path) as fh:
        fh.write(data)


def _config_line(resolved: dict) -> str:
    return json.dumps(resolved, sort_keys=True, separators=(",", ":"))


def write_json(path: str, payload: dict, resolved: dict) -> None:
    body = {"config": resolved}
    body.update(payload)
    _atomic_write(path, (json.dumps(body, indent=2, sort_keys=True) + "\n").encode())


def write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence], resolved: dict) -> None:
    lines = [f"# config: {_config_line(resolved)}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(x) for x in row))
    _atomic_write(path, ("\n".join(lines) + "\n").encode())


def _csv_cell(x: Any) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _ppm_header(width: int, height: int, resolved: dict) -> bytes:
    return f"P6\n# config: {_config_line(resolved)}\n{width} {height}\n255\n".encode()


def _ppm_pixels(bits: np.ndarray) -> bytes:
    """RGB bytes, one pixel per site: white for +1, black for -1."""
    return (bits.astype(np.uint8) * 255)[..., None].repeat(3, axis=-1).tobytes()


def write_ppm(path: str, bits: np.ndarray, resolved: dict) -> None:
    """P6 image of a 2-d site array, one pixel per site."""
    if bits.ndim != 2:
        raise ConfigError("PPM frames need a 2-d site array")
    h, w = bits.shape
    _atomic_write(path, _ppm_header(w, h, resolved) + _ppm_pixels(bits))


def _log(out_dir: str, message: str) -> None:
    stamp = datetime.datetime.now().isoformat(timespec="seconds")
    with open(os.path.join(out_dir, "toomlab.log"), "a", encoding="utf-8") as fh:
        fh.write(f"{stamp} {message}\n")


# --------------------------------------------------------------------------
# commands


def _json_float(x: Optional[float]):
    if x is None:
        return None
    return float(x)


def cmd_check(cfg: dict, resolved: dict, out_dir: str, threads: int) -> tuple[int, dict]:
    try:
        rule = rules.load_rule(cfg["rule"])
    except rules.RuleValidationError as exc:
        payload = {"rule_valid": False, "message": str(exc)}
        try:
            report = rules.check_monotone(rules.load_rule_unchecked(cfg["rule"]))
        except ToomlabError:
            report = None
        if report is not None:
            payload["monotone"] = report.monotone
            payload["constant"] = report.constant
            payload["witness"] = report.witness
        write_json(os.path.join(out_dir, "check_report.json"), payload, resolved)
        return 1, payload
    family = rules.minimal_plus_sets(rule)
    cert = certify.check_eroder(family)
    if not certify.verify_certificate(family, cert):
        raise ToomlabError("internal error: certificate failed verification")
    cert_json = certify.certificate_to_json(cert)
    write_json(os.path.join(out_dir, "certificate.json"), {"certificate": cert_json}, resolved)
    payload: dict = {
        "rule_valid": True,
        "verdict": cert.verdict,
        "plus_sets": [list(z) for z in family.sets],
        "certificate": cert_json,
    }
    if cert.verdict == certify.NON_ERODER:
        payload["witness"] = [str(Fraction(c)) for c in cert.witness]
        return 2, payload
    q, r = certify.certificate_constants(cert)
    report = bounds.bounds_report(
        R=rule.size,
        q=q,
        r=float(r),
        neighborhood=rule.neighborhood,
        eps=cfg["eps"],
        alpha=cfg["alpha"],
        eps_prime=cfg["eps_prime"],
        K=cfg["K"],
    )
    write_json(os.path.join(out_dir, "bounds_report.json"), {"bounds": report}, resolved)
    payload["bounds"] = report
    return 0, payload


def _snapshot_every(cfg: dict) -> int:
    """The snapshot period; 0 writes no frames, and a negative one is refused."""
    if cfg["snapshot_every"] < 0:
        raise ConfigError(f"snapshot_every must be nonnegative, got {cfg['snapshot_every']}")
    return cfg["snapshot_every"]


def cmd_erode(cfg: dict, resolved: dict, out_dir: str, threads: int) -> tuple[int, dict]:
    rule = rules.load_rule(cfg["rule"])
    dims, every = cfg["dims"], _snapshot_every(cfg)
    record = None
    if every > 0:
        if rule.dimension != 2:
            raise ConfigError("erode snapshots support d = 2 (frames) only")
        if dims is None:
            raise ConfigError("snapshots need explicit dims")

        def record(t: int, state: engine.LatticeState) -> None:
            if t % every == 0:
                write_ppm(os.path.join(out_dir, f"erode_{t:06d}.ppm"),
                          state.bits().reshape(dims), resolved)

    result = engine.erosion_time(
        rule, cfg["island"], dims=dims, cutoff=cfg["cutoff"], on_step=record
    )
    if record is not None:
        record(0, engine.LatticeState.plus_with_island(dims, cfg["island"]))
    payload = {
        "erased": result.erased,
        "steps": result.steps,
        "sizes": list(result.sizes),
    }
    write_json(os.path.join(out_dir, "erosion_report.json"), payload, resolved)
    return 0, payload


def cmd_simulate(cfg: dict, resolved: dict, out_dir: str, threads: int) -> tuple[int, dict]:
    rule = rules.load_rule(cfg["rule"])
    dims, every = tuple(cfg["dims"]), _snapshot_every(cfg)
    if every > 0 and rule.dimension not in (1, 2):
        raise ConfigError("snapshots support d = 1 (strip) and d = 2 (frames) only")
    strip = None

    def record(t: int, state: engine.LatticeState) -> None:
        """Write a frame as it is taken: to its own file, or as the next strip row."""
        if t % every:
            return
        bits = state.bits()
        if strip is None:
            write_ppm(os.path.join(out_dir, f"frame_{t:06d}.ppm"), bits.reshape(dims), resolved)
        else:
            strip.write(_ppm_pixels(bits))

    with contextlib.ExitStack() as stack:
        if every > 0 and rule.dimension == 1:
            strip = stack.enter_context(_atomic_file(os.path.join(out_dir, "strip.ppm")))
            strip.write(_ppm_header(dims[0], cfg["steps"] // every + 1, resolved))
        run = stats.minus_density_run(
            rule, cfg["noise"], dims, cfg["steps"], cfg["burn_in"], cfg["seed"],
            threads=threads, on_step=record if every > 0 else None,
        )
    rows = [(t, float(d)) for t, d in enumerate(run.density_series)]
    write_csv(os.path.join(out_dir, "density.csv"), ("step", "density"), rows, resolved)
    payload = {
        "density_mean": _json_float(run.density_mean),
        "density_se": _json_float(run.density_se),
        "steps": cfg["steps"],
    }
    return 0, payload


def cmd_exact(cfg: dict, resolved: dict, out_dir: str, threads: int) -> tuple[int, dict]:
    if cfg["tv_steps"] < 0 or cfg["max_iter"] < 1:
        raise ConfigError("exact needs tv_steps >= 0 and max_iter >= 1")
    rule = rules.load_rule(cfg["rule"])
    dims = tuple(cfg["dims"])
    noise = cfg["noise"]
    kernel = oracle.ExactKernel(rule, noise, dims)
    window = cfg["window"]
    if window is None:
        window = [[0] * rule.dimension]
    window = oracle.window_sites(window, kernel.dims)  # refused before the solve
    pi = oracle.stationary_distribution(
        rule, noise, dims,
        tol=cfg["tol"], max_iter=cfg["max_iter"], kernel=kernel,
    )
    marginal = oracle.window_marginal(pi, window)
    # stop the curve above the accuracy of pi itself, else it saturates
    curve = oracle.tv_curve(
        kernel, pi, n_max=cfg["tv_steps"], floor=max(1e-13, 10.0 * cfg["tol"])
    )
    ns = np.arange(len(curve))
    usable = ns > 5
    fit = stats.fit_log_decay(ns[usable], np.asarray(curve)[usable])
    origin = tuple([0] * rule.dimension)
    f = oracle.spin_observable(origin, rule.dimension)
    # pi is translation-invariant, so pi T is one apply in the space pi was solved in
    space = oracle._space(kernel)
    t_pi = space.lift(space.apply(pi.probs if space.reps is None else pi.probs[space.reps]))
    lhs = oracle.cylinder_expectation(oracle.StateDistribution(dims=kernel.dims, probs=t_pi), f)
    rhs = oracle.cylinder_expectation(pi, oracle.dual_apply(f, kernel))
    payload = {
        "window": [list(s) for s in window],
        "stationary_marginal": [float(p) for p in marginal],
        "tv_curve": [float(x) for x in curve],
        "fitted_rate": _json_float(fit.rate),
        "fit_r_squared": _json_float(fit.r_squared),
        "duality_residual": abs(lhs - rhs),
        "stationary_solver": pi.solver,
        "stationary_iterations": pi.iterations,
        "stationary_residual": pi.residual,
    }
    write_json(os.path.join(out_dir, "exact_report.json"), payload, resolved)
    return 0, payload


def cmd_correlate(cfg: dict, resolved: dict, out_dir: str, threads: int) -> tuple[int, dict]:
    rule = rules.load_rule(cfg["rule"])
    if not (cfg["distances"] or cfg["lags"]):
        raise ConfigError("correlate needs distances and/or lags")
    header = ("distance_or_lag", "estimate", "stderr", "n")
    stats.estimator_bytes(cfg["samples"], 3 if cfg["lags"] else 2)
    sample = stats.stationary_sample(rule, cfg["noise"], cfg["dims"], cfg["burn_in"],
                                     cfg["samples"], cfg["seed"], threads)
    payload: dict = {"burn_in_window": sample.burn_in_window,
                     "burn_in_stragglers": sample.burn_in_stragglers}
    estimates = {}
    if cfg["distances"]:
        estimates["spatial"] = stats.spatial_correlation(sample, cfg["distances"])
    if cfg["lags"]:
        estimates["temporal"] = stats.temporal_autocorrelation(sample, cfg["lags"])
    for kind, (summary, fit) in estimates.items():
        write_csv(os.path.join(out_dir, f"correlate_{kind}.csv"), header, summary.table, resolved)
        payload[f"{kind}_rate"] = _json_float(fit.rate)
        payload[f"{kind}_valid"] = fit.valid
    return 0, payload


def cmd_scan(cfg: dict, resolved: dict, out_dir: str, threads: int) -> tuple[int, dict]:
    rule = rules.load_rule(cfg["rule"])
    rows = stats.density_vs_epsilon_scan(
        rule, cfg["noise_kind"], cfg["eps_grid"], cfg["dims"], cfg["steps"],
        cfg["burn_in"], cfg["seed"], threads=threads,
    )
    table = [(r["eps"], r["density"], r["stderr"], r["n"]) for r in rows]
    write_csv(os.path.join(out_dir, "scan.csv"), ("eps", "density", "stderr", "n"), table, resolved)
    return 0, {"rows": rows}


def cmd_divergence(cfg: dict, resolved: dict, out_dir: str, threads: int) -> tuple[int, dict]:
    rule = rules.load_rule(cfg["rule"])
    result = stats.two_phase_divergence(
        rule, cfg["noise"], cfg["dims"], cfg["steps"], cfg["seed"],
        burn_in=cfg["burn_in"], threads=threads,
    )
    payload = {
        "classification": result.classification,
        "gap_mean": _json_float(result.gap_mean),
        "gap_se": _json_float(result.gap_se),
        "coalescence_step": result.coalescence_step,
    }
    if result.classification != stats.INAPPLICABLE:
        rows = [
            (t, float(p), float(m), float(p - m))
            for t, (p, m) in enumerate(zip(result.mag_plus, result.mag_minus))
        ]
        write_csv(
            os.path.join(out_dir, "divergence.csv"),
            ("step", "mag_plus", "mag_minus", "gap"),
            rows,
            resolved,
        )
    write_json(os.path.join(out_dir, "divergence_report.json"), payload, resolved)
    return 0, payload


_COMMANDS = {
    "check": cmd_check,
    "erode": cmd_erode,
    "simulate": cmd_simulate,
    "exact": cmd_exact,
    "correlate": cmd_correlate,
    "scan": cmd_scan,
    "divergence": cmd_divergence,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="toomlab",
        description="noisy monotone binary cellular automata laboratory",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--threads", type=int, default=1, help="worker-count cap (does not affect results)")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": {"type": "config", "message": str(exc)}}))
        return 1

    try:
        cfg = _validate(raw, _SCHEMAS[args.command], args.command)
        if args.seed is not None:
            cfg["seed"] = args.seed
        elif os.environ.get(SEED_ENV):
            cfg["seed"] = int(os.environ[SEED_ENV])
        if args.out is not None:
            cfg["out"] = args.out
        out_dir = cfg["out"]
        os.makedirs(out_dir, exist_ok=True)
        resolved = _resolved_config(args.command, cfg)
        code, payload = _COMMANDS[args.command](cfg, resolved, out_dir, max(1, args.threads))
        print(json.dumps(payload, sort_keys=True, default=str))
        _log(out_dir, f"{args.command} config={args.config} exit={code}")
        return code
    except (ToomlabError, ValueError, KeyError, OSError, ArithmeticError, AssertionError) as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
