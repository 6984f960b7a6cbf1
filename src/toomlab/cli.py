"""Command-line front end: config parsing, orchestration, artifact output.

Every command reads one JSON config (strictly validated, unknown fields
rejected), which holds every input that can change an artifact: the seed
of a Monte Carlo command is its `seed` field, and check, erode and exact
draw nothing and take no seed.  argv adds only --threads and --out, which
change no artifact byte.  The command runs the requested computation and
writes artifacts atomically (temp file + rename) into --out with the fully
resolved config embedded, so re-running an embedded config reproduces the
artifact byte for byte.  Timestamps never enter artifacts; they go to a
sidecar toomlab.log.  Exit codes: 0 success (or eroder verdict), 2 the
non-eroder verdict from `check`, 1 any error, usage errors included.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import functools
import json
import math
import os
import secrets
import sys
from fractions import Fraction
from typing import Any, Iterable, Optional, Sequence

import numpy as np

from . import bounds, certify, engine, oracle, rules, stats
from .errors import ConfigError, ToomlabError


# --------------------------------------------------------------------------
# config validation

_OPT = object()


def _validate(config: dict, schema: dict[str, tuple], command: str) -> dict:
    """The typed config: every schema field, given or defaulted; unknown fields refused."""
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
        if kind == "seed":
            return engine._seed(value)
        if kind == "int":
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"expected integer, got {value!r}")
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
    },
    "erode": {
        "rule": ("str", _OPT),
        "island": ("site_list", _OPT),
        "dims": ("int_list", None),
        "cutoff": ("int", None),
        "snapshot_every": ("int", 0),
    },
    "simulate": {
        "rule": ("str", _OPT),
        "noise": ("noise", _OPT),
        "dims": ("int_list", _OPT),
        "steps": ("int", _OPT),
        "burn_in": ("int", 0),
        "snapshot_every": ("int", 0),
        "seed": ("seed", 0),
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
    },
    "correlate": {
        "rule": ("str", _OPT),
        "noise": ("noise", _OPT),
        "dims": ("int_list", _OPT),
        "distances": ("int_list", []),
        "lags": ("int_list", []),
        "samples": ("int", _OPT),
        "burn_in": ("int", 100),
        "seed": ("seed", 0),
    },
    "scan": {
        "rule": ("str", _OPT),
        "noise_kind": ("str", "symmetric"),
        "eps_grid": ("float_list", _OPT),
        "dims": ("int_list", _OPT),
        "steps": ("int", _OPT),
        "burn_in": ("int", 0),
        "seed": ("seed", 0),
    },
    "divergence": {
        "rule": ("str", _OPT),
        "noise": ("noise", _OPT),
        "dims": ("int_list", _OPT),
        "steps": ("int", _OPT),
        "burn_in": ("int", None),
        "seed": ("seed", 0),
    },
}


def _resolved_config(command: str, cfg: dict) -> dict:
    """The effective config embedded in artifacts (JSON-ready, canonical)."""
    out = {"command": command}
    for k, v in cfg.items():
        if isinstance(v, engine.NoiseModel):
            v = engine.noise_to_json(v)
        out[k] = v
    return out


# --------------------------------------------------------------------------
# artifact writing


@contextlib.contextmanager
def _atomic_file(path: str):
    """A binary file handle that replaces path only once the block succeeds.

    The temporary file is created exclusively, under a random 64-bit name,
    with mode 0o666, which the umask filters as it does for open().
    """
    directory = os.path.dirname(path) or "."
    tmp = os.path.join(directory, f".tmp_toomlab_{secrets.token_hex(8)}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence], resolved: dict) -> None:
    """Config line, header and rows, written row by row: a generator of rows is never held whole."""
    with _atomic_file(path) as fh:
        fh.write(f"# config: {_config_line(resolved)}\n{','.join(header)}\n".encode())
        fh.writelines(f"{','.join(_csv_cell(x) for x in row)}\n".encode() for row in rows)


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
    return None if x is None else float(x)


def cmd_check(cfg: dict, resolved: dict, out_dir: str, threads: int) -> tuple[int, dict]:
    rule = None
    try:
        rule = rules.load_rule_unchecked(cfg["rule"])
        family = rules.minimal_plus_sets(rule)  # validates the rule
    except rules.RuleValidationError as exc:
        payload = {"rule_valid": False, "message": str(exc)}
        if rule is not None:  # loaded, but not monotone or constant
            report = rules.check_monotone(rule)
            payload["monotone"] = report.monotone
            payload["constant"] = report.constant
            payload["witness"] = report.witness
        write_json(os.path.join(out_dir, "check_report.json"), payload, resolved)
        return 1, payload
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
    report = bounds.bounds_report(
        q=cert.q,  # normalized by check_eroder, checked by verify_certificate
        r=float(cert.r),
        neighborhood=rule.neighborhood,
        eps=cfg["eps"],
        alpha=cfg["alpha"],
        eps_prime=cfg["eps_prime"],
        K=cfg["K"],
    )
    write_json(os.path.join(out_dir, "bounds_report.json"), {"bounds": report}, resolved)
    payload["bounds"] = report
    return 0, payload


def _snapshot_every(cfg: dict, sites: int, steps: int) -> int:
    """The snapshot period, refused when negative or when its steps // every + 1
    frames of 3 bytes per site would exceed engine.MAX_MC_BYTES."""
    every = cfg["snapshot_every"]
    if every < 0:
        raise ConfigError(f"snapshot_every must be nonnegative, got {every}")
    if every:
        frames = steps // every + 1
        engine._within_cap(3 * sites * frames, f"{frames} snapshots of {sites} sites")
    return every


def _frame_writer(every: int, out_dir: str, name: str, resolved: dict, strip=None):
    """on_step writing every every-th state as taken, to name_<t>.ppm or as a strip row."""
    def record(t: int, state: engine.LatticeState) -> None:
        if t % every:
            return
        bits = state.bits()
        if strip is None:
            write_ppm(os.path.join(out_dir, f"{name}_{t:06d}.ppm"), bits.reshape(state.dims), resolved)
        else:
            strip.write(_ppm_pixels(bits))

    return record if every else None


def cmd_erode(cfg: dict, resolved: dict, out_dir: str, threads: int) -> tuple[int, dict]:
    rule = rules.load_rule(cfg["rule"])
    dims, steps = cfg["dims"], 0
    if cfg["island"]:
        dims, steps = engine.erosion_torus(rule, cfg["island"], dims, cfg["cutoff"])
    every = _snapshot_every(cfg, math.prod(dims) if dims else 0, steps)
    if every > 0 and rule.dimension != 2:
        raise ConfigError("erode snapshots support d = 2 (frames) only")
    record = _frame_writer(every, out_dir, "erode", resolved)
    result = engine.erosion_time(
        rule, cfg["island"], dims=cfg["dims"], cutoff=cfg["cutoff"], on_step=record
    )
    payload = {
        "erased": result.erased,
        "steps": result.steps,
        "sizes": list(result.sizes),
    }
    write_json(os.path.join(out_dir, "erosion_report.json"), payload, resolved)
    return 0, payload


def cmd_simulate(cfg: dict, resolved: dict, out_dir: str, threads: int) -> tuple[int, dict]:
    rule = rules.load_rule(cfg["rule"])
    dims = tuple(cfg["dims"])
    every = _snapshot_every(cfg, math.prod(dims), cfg["steps"])
    if every > 0 and rule.dimension not in (1, 2):
        raise ConfigError("snapshots support d = 1 (strip) and d = 2 (frames) only")
    with contextlib.ExitStack() as stack:
        strip = None
        if every > 0 and rule.dimension == 1:
            strip = stack.enter_context(_atomic_file(os.path.join(out_dir, "strip.ppm")))
            strip.write(_ppm_header(dims[0], cfg["steps"] // every + 1, resolved))
        run = stats.minus_density_run(
            rule, cfg["noise"], dims, cfg["steps"], cfg["burn_in"], cfg["seed"],
            threads=threads, on_step=_frame_writer(every, out_dir, "frame", resolved, strip),
        )
    rows = ((t, float(d)) for t, d in enumerate(run.density_series))
    write_csv(os.path.join(out_dir, "density.csv"), ("step", "density"), rows, resolved)
    payload = {
        "density_mean": _json_float(run.density_mean),
        "density_se": _json_float(run.density_se),
        "steps": cfg["steps"],
    }
    return 0, payload


def cmd_exact(cfg: dict, resolved: dict, out_dir: str, threads: int) -> tuple[int, dict]:
    if cfg["tv_steps"] < 0 or cfg["max_iter"] < 1 or cfg["tol"] <= 0:
        raise ConfigError("exact needs tv_steps >= 0, max_iter >= 1 and tol > 0")
    rule = rules.load_rule(cfg["rule"])
    window = [[0] * rule.dimension] if cfg["window"] is None else cfg["window"]
    # dims against the rule, then the window against dims, all before the solve
    window = oracle.window_sites(window, engine._torus_dims(rule, cfg["dims"]))
    pi = oracle.stationary_distribution(
        rule, cfg["noise"], cfg["dims"], tol=cfg["tol"], max_iter=cfg["max_iter"]
    )
    marginal = oracle.window_marginal(pi, window)
    # stop the curve above the accuracy of pi itself, else it saturates
    curve = oracle.tv_curve(
        pi.kernel, pi, n_max=cfg["tv_steps"], floor=max(1e-13, 10.0 * cfg["tol"])
    )
    ns = np.arange(len(curve))
    usable = ns > 5
    fit = stats.fit_log_decay(ns[usable], np.asarray(curve)[usable])
    lhs, rhs = oracle.spin_duality(pi)
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
    # what the estimators would refuse, refused before the burn-in
    stats._check_estimates(engine._torus_dims(rule, cfg["dims"]), cfg["distances"], cfg["lags"])
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
        rows = (
            (t, float(p), float(m), float(p - m))
            for t, (p, m) in enumerate(zip(result.mag_plus, result.mag_minus))
        )
        write_csv(os.path.join(out_dir, "divergence.csv"),
                  ("step", "mag_plus", "mag_minus", "gap"), rows, resolved)
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


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        # exit 2 is check's non-eroder verdict, so a usage error is a JSON error
        raise ConfigError(message)


@functools.cache
def _parser() -> _Parser:
    """Built once: parse_args keeps no state between calls."""
    parser = _Parser(prog="toomlab", description="noisy monotone binary cellular automata laboratory")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--threads", type=int, default=1, help="worker-count cap (does not affect results)")
    parser.add_argument("--out", default=".", help="output directory (does not affect results)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.threads < 1:
            raise ConfigError(f"--threads must be at least 1, got {args.threads}")
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        cfg = _validate(raw, _SCHEMAS[args.command], args.command)
        os.makedirs(args.out, exist_ok=True)
        resolved = _resolved_config(args.command, cfg)
        code, payload = _COMMANDS[args.command](cfg, resolved, args.out, args.threads)
        print(json.dumps(payload, sort_keys=True, default=str))
        _log(args.out, f"{args.command} config={args.config} exit={code}")
        return code
    except (ToomlabError, ValueError, KeyError, OSError, ArithmeticError, AssertionError) as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
