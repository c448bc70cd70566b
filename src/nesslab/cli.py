"""Batch front-end: experiment configs in, CSV/JSON artifacts out.

Config files are INI text (key = value under section tables), versioned by a
schema_version key and overridable per key through environment variables
NESSLAB_<SECTION>__<KEY>; a section or key not declared in ``_SETTINGS`` is a
config error.  Every artifact is written atomically (temp file
plus rename) with round-trip-exact decimal floats, so reruns of the same
config are byte-identical.

Exit codes: 0 success, 2 config error, 3 geometry/precondition error,
4 numerical-check failure.

Each finished step logs one ``info`` line with its wall and CPU time and the
process's peak resident set size so far (``ru_maxrss``); the log goes to
stderr, never into the artifacts.
"""

from __future__ import annotations

import argparse
import configparser
import itertools
import json
import logging
import math
import os
import resource
import sys
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import dynamics, models, spectral, steady_state
from .errors import ConfigError, NumericalCheckError, PreconditionError
from .operators import ChainConfig, LocalOperator

log = logging.getLogger("nesslab")

SCHEMA_VERSION = 1
ENV_PREFIX = "NESSLAB_"
MAX_DIM = 2**14  # largest Hilbert-space dimension a run may build

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_PRECONDITION = 3
_EXIT_NUMERICAL = 4


@dataclass
class ExperimentConfig:
    """Parsed and validated experiment description; the defaults of every key."""

    label: str = "experiment"
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
        """Round-trip-exact INI rendering (floats via repr), one line per setting."""

        def fmt(v):
            if isinstance(v, float):
                return repr(v)
            if isinstance(v, tuple):
                return ", ".join(fmt(x) for x in v)
            return str(v)

        blocks = []
        for section, rows in itertools.groupby(_SETTINGS, key=lambda row: row[0]):
            lines = [f"[{section}]"]
            for _, key, name, _ in rows:
                value = getattr(self, name) if name else SCHEMA_VERSION
                lines.append(f"{key} = {fmt(value)}")
            blocks.append("\n".join(lines) + "\n")
        return "\n".join(blocks)


def _checked(valid, what: str, cast=float):  # nan fails every ``valid``
    def parse(text: str):
        value = cast(text)
        if not valid(value):
            raise ValueError(f"{text!r} is not {what}")
        return value
    return parse


def _choice(*allowed: str):
    def parse(text: str) -> str:
        if text not in allowed:
            raise ValueError(f"{text!r} is not one of {', '.join(allowed)}")
        return text
    return parse


def _values(parse, empty_ok: bool = False):  # comma- or space-separated
    def parse_all(text: str) -> tuple:
        values = tuple(parse(p) for p in text.replace(",", " ").split())
        if not (values or empty_ok):
            raise ValueError("the list is empty")
        return values
    return parse_all


_finite = _checked(math.isfinite, "finite")
_positive = _checked(lambda v: math.isfinite(v) and v > 0, "finite and positive")
_tolerance = _checked(lambda v: math.isfinite(v) and v >= 0, "finite and non-negative")
_window_width = _checked(lambda v: v > 0, "positive")  # inf is an unbounded window
_label = _checked(lambda v: v == v.strip() and not set(v) & set(";#\r\n"),  # written back as is
                 "free of ';', '#', line breaks and outer whitespace", str)

# Every config key, once: (section, key, ExperimentConfig field, parser).  The
# parser holds the key's checks; the defaults are the fields'.  canonical_text
# renders the keys in this order.  schema_version has no field: only
# SCHEMA_VERSION parses.
_SETTINGS = (
    ("run", "schema_version", None,
     _checked(lambda v: v == SCHEMA_VERSION, f"the supported version {SCHEMA_VERSION}", int)),
    ("run", "label", "label", _label),
    ("model", "kind", "model_kind", _choice("xx", "xxz", "fermion")),
    ("model", "lambda_aniso", "lambda_aniso", _finite),
    ("model", "t_hop", "t_hop", _finite),
    ("model", "v", "v", _values(_finite, empty_ok=True)),
    ("chain", "n_sites", "n_sites", _checked(lambda v: v >= 2, "at least 2", int)),
    ("chain", "boundary", "boundary", _choice("periodic", "open")),
    ("bias", "beta", "beta", _positive),
    ("bias", "lambda", "lam", _finite),
    ("geometry", "M", "M", int),
    ("geometry", "L", "L", int),
    ("window", "kind", "window_kind", _choice("hann", "truncated_gaussian")),
    ("window", "T", "window_T", _positive),
    ("scan", "x_values", "x_values", _values(int)),
    ("scan", "t_values", "t_values", _values(_finite)),
    ("checks", "sum_rule_rel_err", "sum_rule_rel_err", _tolerance),
    ("checks", "derivative_rel_err", "derivative_rel_err", _tolerance),
    ("checks", "conservation_tol", "conservation_tol", _tolerance),
    ("checks", "epsilon_windows", "epsilon_windows", _values(_window_width)),
)


def parse_config(text: str, env: dict | None = None) -> ExperimentConfig:
    """Parse INI text, apply NESSLAB_<SECTION>__<KEY> environment overrides.

    A section or key that is not in ``_SETTINGS`` is a ConfigError, whether it
    comes from the text, its [DEFAULT] section or an override.
    """
    env = dict(os.environ) if env is None else env
    # no default section: [DEFAULT] is one more unknown section; no
    # interpolation: a value is its literal text
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                   default_section="", interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    given = {(section, key): raw for section in cp.sections() for key, raw in cp.items(section)}
    for name, raw in env.items():
        if name.startswith(ENV_PREFIX) and "__" in name:
            section, key = name[len(ENV_PREFIX):].lower().split("__", 1)
            given[section, key] = raw

    known = {(section, key.lower()) for section, key, _, _ in _SETTINGS}
    for section, key in given:
        if (section, key) not in known:
            raise ConfigError(f"unknown config key [{section}] {key}")
    for section in cp.sections():
        if section not in {s for s, _ in known}:
            raise ConfigError(f"unknown config section [{section}]")
    values = {}
    for section, key, name, parse in _SETTINGS:
        raw = given.get((section, key.lower()))
        if raw is None:
            continue
        try:
            value = parse(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for [{section}] {key}: {exc}") from exc
        if name:
            values[name] = value
    cfg = ExperimentConfig(**values)
    for name, kind in (("lambda_aniso", "xxz"), ("t_hop", "fermion"), ("v", "fermion")):
        if cfg.model_kind != kind and getattr(cfg, name) != getattr(ExperimentConfig, name):
            raise ConfigError(f"[model] {name} is read only by kind = {kind}, not {cfg.model_kind}")
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


def _check_dim(site_dim: int, n_sites: int) -> None:
    if site_dim**n_sites > MAX_DIM:
        raise PreconditionError(
            f"Hilbert-space dimension {site_dim}**{n_sites} exceeds cap {MAX_DIM}")


class _Workspace:
    """Lazily built model objects shared across subcommands of one run."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        if cfg.model_kind == "xx":
            self.phi, self.spec = models.build_xx_model()
        elif cfg.model_kind == "xxz":
            self.phi, self.spec = models.build_xxz_model(cfg.lambda_aniso)
        else:
            _check_dim(2, len(cfg.v) + 2)  # the builder checks its terms on r + 2 sites
            self.phi, self.spec = models.build_fermion_model(cfg.t_hop, list(cfg.v))
        if not self.phi.max_term_norm() > 0:
            raise PreconditionError("every term of the interaction is zero; there are no dynamics")
        self.chain = ChainConfig(cfg.n_sites, self.phi.site_dim, cfg.boundary)
        _check_dim(self.phi.site_dim, cfg.n_sites)
        self.geom = models.CurrentGeometry(L=cfg.L, M=cfg.M, r=self.phi.r)
        # fail fast: validate the full geometry before any diagonalization
        self.geom.validate_for_chain(self.chain, wrap_clearance=True)
        self.window = spectral.WindowFunction(cfg.window_kind, cfg.window_T)
        if self.window.T > spectral.wrap_horizon(self.phi, self.chain):
            raise PreconditionError(
                f"window T = {self.window.T} exceeds the wrap horizon of this chain"
            )

    @cached_property
    def state(self):
        return steady_state.build_biased_gibbs(
            self.phi, self.spec, steady_state.BiasSpec(beta=self.cfg.beta, lam=self.cfg.lam),
            self.chain)

    @cached_property
    def report(self):
        return steady_state.verify_ness(self.state, self.phi, self.spec, self.chain)

    @cached_property
    def tables(self):
        """The state's transfer tables, one per term class, shared by every windowed sum."""
        return spectral.term_tables(self.state, self.phi, self.spec)


def _pairs(mat: np.ndarray) -> list:
    """A complex matrix as [re, im] pairs in row-major order; JSON reads them back bit for bit."""
    return [[float(z.real), float(z.imag)] for z in mat.reshape(-1)]


def _cmd_build(ws: _Workspace, out: str) -> int:
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
        "current_matrix": _pairs(j0.coeffs),
        "energy_density_support": list(h.support),
        "lr_velocity": models.lr_velocity(ws.phi),
        "conservation_residual": residual,
        "interaction": {"schema": "nesslab.interaction/1", "site_dim": ws.phi.site_dim,
                        "range": ws.phi.r, "terms": [{"offsets": list(o), "matrix": _pairs(m)}
                                                     for o, m in ws.phi.terms]},
    }
    _write_json(os.path.join(out, "build.json"), doc)
    if not residual <= cfg.conservation_tol:
        raise NumericalCheckError(
            f"conservation residual {residual:.3e} exceeds {cfg.conservation_tol}"
        )
    return _EXIT_OK


def _cmd_verify_lr(ws: _Workspace, out: str) -> int:
    sz = LocalOperator((0,), models.PAULI_Z, hermitian=True)
    rows = dynamics.lr_scan(ws.phi, sz, sz, list(ws.cfg.x_values), list(ws.cfg.t_values),
                            ws.chain)
    _atomic_write(os.path.join(out, "lr_scan.csv"), dynamics.lr_scan_csv(rows))
    live = [r for r in rows if not r.excluded]
    violations = [r for r in live if not r.empirical <= r.bound]
    _write_json(os.path.join(out, "lr_summary.json"), {
        "points": len(rows),
        "excluded": len(rows) - len(live),
        "violations": len(violations),
    })
    if violations:
        raise NumericalCheckError(f"{len(violations)} locality-bound violations")
    return _EXIT_OK


def _cmd_ness(ws: _Workspace, out: str) -> int:
    _write_json(os.path.join(out, "ness.json"), steady_state.state_summary(ws.state, ws.report))
    return _EXIT_OK


def _cmd_sumrule(ws: _Workspace, out: str) -> int:
    kernel = spectral.correlation_kernel(ws.state, ws.phi, ws.spec, ws.geom, ws.chain,
                                         tables=ws.tables)
    ts = np.linspace(-ws.window.T, ws.window.T, 129)
    curve = kernel.curve(ts)
    lines = ["t,C"] + [f"{t!r},{c!r}" for t, c in zip(ts.tolist(), curve.tolist())]
    _atomic_write(os.path.join(out, "c_curve.csv"), "\n".join(lines) + "\n")
    res = spectral.sum_rule_check(ws.state, ws.phi, ws.spec, ws.geom, ws.window, ws.chain,
                                  kernel=kernel)
    _write_json(os.path.join(out, "sumrule.json"), res)
    if res["no_current"]:  # both sides are rounding noise: their ratio means nothing
        if not res["abs_err"] <= spectral.NO_CURRENT_TOL:
            raise NumericalCheckError(
                f"sum-rule abs_err {res['abs_err']:.3e} of a state without current "
                f"exceeds {spectral.NO_CURRENT_TOL}"
            )
    elif not res["rel_err"] <= ws.cfg.sum_rule_rel_err:
        raise NumericalCheckError(
            f"sum-rule rel_err {res['rel_err']:.4f} exceeds {ws.cfg.sum_rule_rel_err}"
        )
    return _EXIT_OK


def _cmd_spectral(ws: _Workspace, out: str) -> int:
    report = ws.report
    if not report.symmetry_residual <= 1e-10:
        raise PreconditionError(
            "state breaks the charge symmetry; the symmetric-branch identity "
            "does not apply (symmetry-breaking branch is out of scope)"
        )
    sf = spectral.spectral_function_rho(ws.state, ws.phi, ws.spec, tables=ws.tables)
    _atomic_write(os.path.join(out, "spectral.csv"), sf.to_csv())
    Y = ws.geom.M - ws.phi.r  # the position window |z| <= Y of both diagnostics
    res = spectral.momentum_derivative_check(sf, ws.window, Y, report.current_value)
    _write_json(os.path.join(out, "derivative.json"), res)
    diag = spectral.singularity_diagnostic(sf, list(ws.cfg.epsilon_windows),
                                           z_halfwidth=max(1, Y))
    _write_json(os.path.join(out, "singularity.json"), diag)
    if not (diag["no_current"] or res["rel_err"] <= ws.cfg.derivative_rel_err):
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
    if subcommand == "all":  # refuse a state the later steps cannot build before the first step
        steady_state.biased_generator(ws.phi, ws.spec, cfg.lam, ws.chain)
    _atomic_write(os.path.join(out_dir, "config.resolved.ini"), cfg.canonical_text())
    for step in _SUBCOMMANDS[subcommand]:
        wall, cpu = time.perf_counter(), time.process_time()
        code = step(ws, out_dir)
        log.info("step %s: wall %.3f s, cpu %.3f s, peak rss %.1f MB",
                 step.__name__.removeprefix("_cmd_").replace("_", "-"),
                 time.perf_counter() - wall, time.process_time() - cpu,
                 resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
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
