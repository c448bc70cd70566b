"""Batch front-end: experiment configs in, CSV/JSON artifacts out.

Config files are INI text (key = value under section tables), versioned by a
schema_version key and overridable per key through environment variables
NESSLAB_<SECTION>__<KEY>.  Every artifact is written atomically (temp file
plus rename) with round-trip-exact decimal floats, so reruns of the same
config are byte-identical.

Exit codes: 0 success, 2 config error, 3 geometry/precondition error,
4 numerical-check failure.
"""

from __future__ import annotations

import argparse
import configparser
import io
import json
import logging
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalCheckError, PreconditionError

log = logging.getLogger("nesslab")

SCHEMA_VERSION = 1
ENV_PREFIX = "NESSLAB_"

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_PRECONDITION = 3
_EXIT_NUMERICAL = 4


@dataclass
class ExperimentConfig:
    """Parsed and validated experiment description."""

    label: str = "experiment"
    seed: int = 0
    model_kind: str = "xx"
    lambda_aniso: float = 0.0
    t_hop: float = 1.0
    v: tuple = (0.5,)
    n_sites: int = 12
    boundary: str = "periodic"
    beta: float = 1.0
    lam: float = 0.5
    M: int = 3
    L: int = 7
    window_kind: str = "hann"
    window_T: float = 2.0
    x_values: tuple = (3, 4, 5)
    t_values: tuple = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
    sum_rule_rel_err: float = 0.05
    derivative_rel_err: float = 0.10
    conservation_tol: float = 1e-12
    epsilon_windows: tuple = (0.2, 0.5, 1.0)

    def canonical_text(self) -> str:
        """Round-trip-exact INI rendering (floats via repr)."""

        def fmt(v):
            if isinstance(v, float):
                return repr(v)
            if isinstance(v, tuple):
                return ", ".join(fmt(x) for x in v)
            return str(v)

        out = io.StringIO()
        out.write("[run]\n")
        out.write(f"schema_version = {SCHEMA_VERSION}\n")
        out.write(f"label = {self.label}\n")
        out.write(f"seed = {self.seed}\n\n")
        out.write("[model]\n")
        out.write(f"kind = {self.model_kind}\n")
        out.write(f"lambda_aniso = {fmt(self.lambda_aniso)}\n")
        out.write(f"t_hop = {fmt(self.t_hop)}\n")
        out.write(f"v = {fmt(self.v)}\n\n")
        out.write("[chain]\n")
        out.write(f"n_sites = {self.n_sites}\n")
        out.write(f"boundary = {self.boundary}\n\n")
        out.write("[bias]\n")
        out.write(f"beta = {fmt(self.beta)}\n")
        out.write(f"lambda = {fmt(self.lam)}\n\n")
        out.write("[geometry]\n")
        out.write(f"M = {self.M}\n")
        out.write(f"L = {self.L}\n\n")
        out.write("[window]\n")
        out.write(f"kind = {self.window_kind}\n")
        out.write(f"T = {fmt(self.window_T)}\n\n")
        out.write("[scan]\n")
        out.write(f"x_values = {fmt(self.x_values)}\n")
        out.write(f"t_values = {fmt(self.t_values)}\n\n")
        out.write("[checks]\n")
        out.write(f"sum_rule_rel_err = {fmt(self.sum_rule_rel_err)}\n")
        out.write(f"derivative_rel_err = {fmt(self.derivative_rel_err)}\n")
        out.write(f"conservation_tol = {fmt(self.conservation_tol)}\n")
        out.write(f"epsilon_windows = {fmt(self.epsilon_windows)}\n")
        return out.getvalue()


def _parse_tuple(text: str, cast):
    parts = [p.strip() for p in text.replace(",", " ").split()]
    return tuple(cast(p) for p in parts if p)


def _number(valid, what: str):  # a float parser; nan fails every ``valid``
    def cast(text: str) -> float:
        value = float(text)
        if not valid(value):
            raise ValueError(f"{text!r} is not {what}")
        return value
    return cast


_finite = _number(math.isfinite, "finite")
_positive = _number(lambda v: math.isfinite(v) and v > 0, "finite and positive")
_tolerance = _number(lambda v: math.isfinite(v) and v >= 0, "finite and non-negative")
_window_width = _number(lambda v: v > 0, "positive")  # inf is an unbounded window


def parse_config(text: str, env: dict | None = None) -> ExperimentConfig:
    """Parse INI text, apply NESSLAB_<SECTION>__<KEY> environment overrides."""
    env = dict(os.environ) if env is None else env
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    for key, value in env.items():
        if not key.startswith(ENV_PREFIX) or "__" not in key:
            continue
        section, option = key[len(ENV_PREFIX):].split("__", 1)
        section, option = section.lower(), option.lower()
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, option, value)

    def get(section, option, cast, default):
        if not cp.has_option(section, option):
            return default
        raw = cp.get(section, option)
        try:
            return cast(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for [{section}] {option}: {raw!r}") from exc

    version = get("run", "schema_version", int, SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version}")
    cfg = ExperimentConfig(
        label=get("run", "label", str, "experiment"),
        seed=get("run", "seed", int, 0),
        model_kind=get("model", "kind", str, "xx"),
        lambda_aniso=get("model", "lambda_aniso", _finite, 0.0),
        t_hop=get("model", "t_hop", _finite, 1.0),
        v=get("model", "v", lambda s: _parse_tuple(s, _finite), (0.5,)),
        n_sites=get("chain", "n_sites", int, 12),
        boundary=get("chain", "boundary", str, "periodic"),
        beta=get("bias", "beta", _positive, 1.0),
        lam=get("bias", "lambda", _finite, 0.5),
        M=get("geometry", "m", int, 3),
        L=get("geometry", "l", int, 7),
        window_kind=get("window", "kind", str, "hann"),
        window_T=get("window", "t", _positive, 2.0),
        x_values=get("scan", "x_values", lambda s: _parse_tuple(s, int), (3, 4, 5)),
        t_values=get("scan", "t_values", lambda s: _parse_tuple(s, _finite),
                     (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)),
        sum_rule_rel_err=get("checks", "sum_rule_rel_err", _tolerance, 0.05),
        derivative_rel_err=get("checks", "derivative_rel_err", _tolerance, 0.10),
        conservation_tol=get("checks", "conservation_tol", _tolerance, 1e-12),
        epsilon_windows=get("checks", "epsilon_windows",
                            lambda s: _parse_tuple(s, _window_width), (0.2, 0.5, 1.0)),
    )
    if not (cfg.x_values and cfg.t_values and cfg.epsilon_windows):
        raise ConfigError("x_values, t_values and epsilon_windows must not be empty")
    if cfg.n_sites < 2:
        raise ConfigError(f"[chain] n_sites must be >= 2, got {cfg.n_sites}")
    if cfg.model_kind not in ("xx", "xxz", "fermion"):
        raise ConfigError(f"unknown model kind {cfg.model_kind!r}")
    if cfg.boundary not in ("periodic", "open"):
        raise ConfigError(f"unknown boundary {cfg.boundary!r}")
    if cfg.window_kind not in ("hann", "truncated_gaussian"):
        raise ConfigError(f"unknown window kind {cfg.window_kind!r}")
    return cfg


def load_config(path: str, env: dict | None = None) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, env=env)


# ---------------------------------------------------------------------------
# pipeline pieces
# ---------------------------------------------------------------------------

def _atomic_write(path: str, data: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _json_ready(obj):
    if isinstance(obj, dict):
        return {str(k): _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_json_ready(v) for v in obj.tolist()]
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def _write_json(path: str, doc: dict) -> None:
    _atomic_write(path, json.dumps(_json_ready(doc), indent=1) + "\n")


class _Workspace:
    """Lazily built model objects shared across subcommands of one run."""

    def __init__(self, cfg: ExperimentConfig):
        from . import models
        from .operators import ChainConfig

        self.cfg = cfg
        if cfg.model_kind == "xx":
            self.phi, self.spec = models.build_xx_model()
        elif cfg.model_kind == "xxz":
            self.phi, self.spec = models.build_xxz_model(cfg.lambda_aniso)
        else:
            self.phi, self.spec = models.build_fermion_model(cfg.t_hop, list(cfg.v))
        self.chain = ChainConfig(cfg.n_sites, self.phi.site_dim, cfg.boundary)
        self.geom = models.CurrentGeometry(L=cfg.L, M=cfg.M, r=self.phi.r)
        # fail fast: validate the full geometry before any diagonalization
        self.geom.validate_for_chain(self.chain, wrap_clearance=True)
        from .spectral import WindowFunction, wrap_horizon

        self.window = WindowFunction(cfg.window_kind, cfg.window_T)
        if self.window.T > wrap_horizon(self.phi, self.chain):
            raise PreconditionError(
                f"window T = {self.window.T} exceeds the wrap horizon of this chain"
            )
        self._state = None
        self._report = None

    def state(self):
        if self._state is None:
            from .steady_state import BiasSpec, build_biased_gibbs

            self._state = build_biased_gibbs(
                self.phi, self.spec, BiasSpec(beta=self.cfg.beta, lam=self.cfg.lam),
                self.chain,
            )
        return self._state

    def report(self):
        if self._report is None:
            from .steady_state import verify_ness

            self._report = verify_ness(self.state(), self.phi, self.spec, self.chain)
        return self._report


def _cmd_build(ws: _Workspace, out: str) -> int:
    from . import models

    cfg = ws.cfg
    j0 = models.current_local(ws.phi, ws.spec, ws.chain)
    h = models.energy_density(ws.phi, ws.chain)
    residual = models.check_conservation(ws.phi, ws.spec, ws.chain)
    doc = {
        "label": cfg.label,
        "model": cfg.model_kind,
        "site_dim": ws.phi.site_dim,
        "range": ws.phi.r,
        "n_sites": cfg.n_sites,
        "current_support": list(j0.support),
        "current_matrix": [[z.real, z.imag] for z in j0.coeffs.reshape(-1)],
        "energy_density_support": list(h.support),
        "lr_velocity": models.lr_velocity(ws.phi),
        "conservation_residual": residual,
        "interaction": json.loads(models.interaction_to_json(ws.phi)),
    }
    _write_json(os.path.join(out, "build.json"), doc)
    if residual > cfg.conservation_tol:
        raise NumericalCheckError(
            f"conservation residual {residual:.3e} exceeds {cfg.conservation_tol}"
        )
    return _EXIT_OK


def _cmd_verify_lr(ws: _Workspace, out: str) -> int:
    from . import models
    from .dynamics import lr_scan, lr_scan_csv
    from .operators import LocalOperator

    sz = LocalOperator((0,), models.PAULI_Z, hermitian=True)
    rows = lr_scan(ws.phi, sz, sz, list(ws.cfg.x_values), list(ws.cfg.t_values), ws.chain)
    _atomic_write(os.path.join(out, "lr_scan.csv"), lr_scan_csv(rows))
    live = [r for r in rows if not r.excluded]
    violations = [r for r in live if r.empirical > r.bound]
    _write_json(os.path.join(out, "lr_summary.json"), {
        "points": len(rows),
        "excluded": len(rows) - len(live),
        "violations": len(violations),
    })
    if violations:
        raise NumericalCheckError(f"{len(violations)} locality-bound violations")
    return _EXIT_OK


def _cmd_ness(ws: _Workspace, out: str) -> int:
    from .steady_state import state_summary

    _write_json(os.path.join(out, "ness.json"), state_summary(ws.state(), ws.report()))
    return _EXIT_OK


def _cmd_sumrule(ws: _Workspace, out: str) -> int:
    from .spectral import correlation_kernel, sum_rule_check

    state = ws.state()
    kernel = correlation_kernel(state, ws.phi, ws.spec, ws.geom, ws.chain)
    ts = np.linspace(-ws.window.T, ws.window.T, 129)
    curve = kernel.curve(ts)
    lines = ["t,C"] + [f"{t!r},{c!r}" for t, c in zip(ts.tolist(), curve.tolist())]
    _atomic_write(os.path.join(out, "c_curve.csv"), "\n".join(lines) + "\n")
    res = sum_rule_check(state, ws.phi, ws.spec, ws.geom, ws.window, ws.chain, kernel=kernel)
    _write_json(os.path.join(out, "sumrule.json"), res)
    if res["rel_err"] > ws.cfg.sum_rule_rel_err:
        raise NumericalCheckError(
            f"sum-rule rel_err {res['rel_err']:.4f} exceeds {ws.cfg.sum_rule_rel_err}"
        )
    return _EXIT_OK


def _cmd_spectral(ws: _Workspace, out: str) -> int:
    from . import models
    from .operators import LocalOperator
    from .spectral import (
        momentum_derivative_check,
        singularity_diagnostic,
        spectral_function_rho,
    )
    state = ws.state()
    report = ws.report()
    if report.symmetry_residual > 1e-10:
        raise PreconditionError(
            "state breaks the charge symmetry; the symmetric-branch identity "
            "does not apply (symmetry-breaking branch is out of scope)"
        )
    n_op = LocalOperator((0,), ws.spec.n0)
    h_op = models.energy_density(ws.phi, ws.chain)
    sf = spectral_function_rho(state, n_op, h_op)
    _atomic_write(os.path.join(out, "spectral.csv"), sf.to_csv())
    res = momentum_derivative_check(state, sf, ws.window, ws.geom, ws.chain,
                                    current_value=report.current_value)
    _write_json(os.path.join(out, "derivative.json"), res)
    diag = singularity_diagnostic(sf, list(ws.cfg.epsilon_windows),
                                  z_halfwidth=max(1, ws.geom.M - ws.phi.r))
    _write_json(os.path.join(out, "singularity.json"), diag)
    if not diag["no_current"] and res["rel_err"] > ws.cfg.derivative_rel_err:
        raise NumericalCheckError(
            f"derivative-check rel_err {res['rel_err']:.4f} exceeds "
            f"{ws.cfg.derivative_rel_err}"
        )
    return _EXIT_OK


_SUBCOMMANDS = {
    "build": [_cmd_build],
    "verify-lr": [_cmd_verify_lr],
    "ness": [_cmd_ness],
    "sumrule": [_cmd_sumrule],
    "spectral": [_cmd_spectral],
    "all": [_cmd_build, _cmd_verify_lr, _cmd_ness, _cmd_sumrule, _cmd_spectral],
}


def run(subcommand: str, cfg: ExperimentConfig, out_dir: str) -> int:
    """Execute one subcommand; artifacts land in out_dir."""
    if subcommand not in _SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    os.makedirs(out_dir, exist_ok=True)
    log.info("validating config %r (model %s on %d sites)", cfg.label,
             cfg.model_kind, cfg.n_sites)
    ws = _Workspace(cfg)
    _atomic_write(os.path.join(out_dir, "config.resolved.ini"), cfg.canonical_text())
    for step in _SUBCOMMANDS[subcommand]:
        log.info("running %s", step.__name__.lstrip("_"))
        code = step(ws, out_dir)
        if code != _EXIT_OK:
            return code
    log.info("artifacts written to %s", out_dir)
    return _EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nesslab",
        description="Finite-chain steady-state and spectral-singularity experiments.",
    )
    parser.add_argument("subcommand", choices=sorted(_SUBCOMMANDS))
    parser.add_argument("--config", required=True, help="experiment config (INI)")
    parser.add_argument("--out", required=True, help="output directory for artifacts")
    parser.add_argument("--log-level", default="info",
                        choices=["debug", "info", "warning", "error"])
    args = parser.parse_args(argv)

    logging.basicConfig(level=getattr(logging, args.log_level.upper()),
                        format="%(levelname)s %(name)s: %(message)s")

    try:
        cfg = load_config(args.config)
        return run(args.subcommand, cfg, args.out)
    except ConfigError as exc:
        _emit_error(args.out, "config", str(exc))
        return _EXIT_CONFIG
    except PreconditionError as exc:
        _emit_error(args.out, "precondition", str(exc))
        return _EXIT_PRECONDITION
    except NumericalCheckError as exc:
        _emit_error(args.out, "numerical-check", str(exc))
        return _EXIT_NUMERICAL


def _emit_error(out_dir: str, kind: str, message: str) -> None:
    doc = {"error": kind, "message": message}
    sys.stderr.write(json.dumps(doc) + "\n")
    try:
        os.makedirs(out_dir, exist_ok=True)
        _write_json(os.path.join(out_dir, "error.json"), doc)
    except OSError:
        pass


if __name__ == "__main__":
    raise SystemExit(main())
