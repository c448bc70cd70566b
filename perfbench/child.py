"""One benchmark client process: runs a list of work units, then reports.

Started by ``run.py`` as ``python3 perfbench/child.py SPEC RESULT`` with
``src`` on ``PYTHONPATH`` and the BLAS/OpenMP thread count already in its
environment, so the libraries read it when numpy loads.  SPEC is a JSON file:

    {"out": dir, "trace": bool, "repeat_first": bool, "units": [unit, ...]}

A unit is one of
    {"kind": "all", "config": INI text}    ``nesslab.cli.run("all", ...)``
    {"kind": "lr_offdiag"}                 XXZ(0.5) n = 10 sigma_x LR scan
    {"kind": "oracle", "config": INI text} dense expm current for a config

The child imports every layer module and parses every config, then records
the end of set-up on the system-wide monotonic clock; with no units it only
reports the library versions and exits.  With ``trace`` it wraps public
functions of the layer modules in spans (kept in memory, written with the
result).  ``repeat_first`` runs the first unit once more at the end, as the
warm repeat.
"""

import functools
import hashlib
import json
import os
import resource
import sys
import time
import traceback

import numpy as np
import scipy
import scipy.linalg as sla

import nesslab
from nesslab import cli, dynamics, models, spectral, steady_state
from nesslab.operators import ChainConfig, LocalOperator, embed

LAYERS = {"cli": cli, "dynamics": dynamics, "models": models,
          "spectral": spectral, "steady_state": steady_state}

# (metric group, module, attribute): every call of the attribute is one span
# named "<module>.<attribute>"; a group's self time sums its spans' self times.
TRACED = (
    ("models.assemble", "models", "build_xx_model"),
    ("models.assemble", "models", "build_xxz_model"),
    ("models.assemble", "models", "hamiltonian"),
    ("models.assemble", "models", "window_hamiltonian_sparse"),
    ("models.assemble", "models", "charge_sparse"),
    ("models.assemble", "models", "total_current"),
    ("models.assemble", "models", "current_local"),
    ("models.assemble", "models", "energy_density"),
    ("models.check_conservation", "models", "check_conservation"),
    ("dynamics.evolution_context", "dynamics", "EvolutionContext.for_interaction"),
    ("dynamics.lr_scan", "dynamics", "lr_scan"),
    ("steady_state.build_biased_gibbs", "steady_state", "build_biased_gibbs"),
    ("steady_state.verify_ness", "steady_state", "verify_ness"),
    ("spectral.correlation_kernel", "spectral", "correlation_kernel"),
    ("spectral.kernel_curve", "spectral", "CommutatorKernel.curve"),
    ("spectral.sum_rule_check", "spectral", "sum_rule_check"),
    ("spectral.spectral_function_rho", "spectral", "spectral_function_rho"),
    ("spectral.momentum_derivative_check", "spectral", "momentum_derivative_check"),
    ("spectral.singularity_diagnostic", "spectral", "singularity_diagnostic"),
    ("cli.serialize", "cli", "run"),
)

LR_X = [3, 4, 5]
LR_T = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]


def _hwm_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _basis_counts(vectors) -> dict:
    return {"spectral.dim": vectors.shape[0], "spectral.basis_mb": vectors.nbytes / 2**20}


# exact counts read off the return values of traced calls
OBSERVERS = {
    "steady_state.build_biased_gibbs": lambda state: _basis_counts(state.basis.vectors),
    "dynamics.EvolutionContext.for_interaction": lambda ctx: _basis_counts(ctx.vectors),
    "spectral.spectral_function_rho": lambda sf: {"spectral.weights_count": len(sf.weights)},
    "dynamics.lr_scan": lambda rows: {
        "dynamics.scan_points_live": sum(not r.excluded for r in rows),
        "dynamics.scan_points_excluded": sum(r.excluded for r in rows),
    },
}


class Tracer:
    """In-memory spans: [name, start, end, parent index, unit, rss hwm at end]."""

    def __init__(self):
        self.spans = []
        self.counts = []  # (unit, name, value)
        self.unit = None
        self._stack = []

    def wrap(self, name, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, time.perf_counter(), None, parent, self.unit, None])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
                self.spans[idx][5] = _hwm_mb()
            if observe is not None:
                for key, value in observe(result).items():
                    self.counts.append((self.unit, key, value))
            return result

        return traced

    def install(self) -> list:
        """Wrap every TRACED attribute that exists; returns the missing ones."""
        missing = []
        for _, module, attr in TRACED:
            owner = LAYERS[module]
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            raw = None if owner is None else vars(owner).get(name)
            if raw is None:
                missing.append(f"{module}.{attr}")
                continue
            span = f"{module}.{attr}"
            if isinstance(raw, classmethod):
                setattr(owner, name, classmethod(self.wrap(span, raw.__func__)))
            else:
                setattr(owner, name, self.wrap(span, raw))
        return missing


def _digests(out_dir: str) -> dict:
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def _artifact_bytes(out_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(out_dir, n)) for n in os.listdir(out_dir))


def run_all(cfg, out_dir: str) -> None:
    code = cli.run("all", cfg, out_dir)
    if code != 0:
        raise RuntimeError(f"nesslab all returned {code}")


def run_lr_offdiag(out_dir: str) -> None:
    """Generic dense-evolution LR scan: A = B = sigma_x on XXZ(0.5), n = 10."""
    phi, _ = models.build_xxz_model(0.5)
    chain = ChainConfig(10, 2)
    ctx = dynamics.EvolutionContext.for_interaction(phi, chain)
    sx = LocalOperator((0,), models.PAULI_X, hermitian=True)
    rows = dynamics.lr_scan(phi, sx, sx, LR_X, LR_T, chain, ctx=ctx)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "lr_scan.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dynamics.lr_scan_csv(rows))


def oracle_current(cfg) -> float:
    """<j_0> in rho = expm(-beta (H - lambda J)) / Z, built densely."""
    phi, spec = models.build_xx_model()
    chain = ChainConfig(cfg.n_sites, phi.site_dim)
    H = models.hamiltonian(phi, chain)
    J = models.total_current(phi, spec, chain)
    rho = sla.expm(-cfg.beta * (H - cfg.lam * J))
    rho /= np.trace(rho).real
    j0 = embed(models.current_local(phi, spec, chain), chain)
    return float(np.trace(rho @ j0).real)


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nesslab": nesslab.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    units = spec["units"]
    configs = [cli.parse_config(u["config"], env={}) if "config" in u else None
               for u in units]
    tracer = Tracer() if spec["trace"] else None
    missing = tracer.install() if tracer else []
    setup_mark = time.monotonic()

    order = list(range(len(units)))
    if spec["repeat_first"] and units:
        order.append(0)
    results = []
    for pos, i in enumerate(order):
        unit = units[i]
        out_dir = os.path.join(spec["out"], f"u{pos}")
        rec = {"unit": i, "kind": unit["kind"], "out": out_dir, "ok": True}
        if tracer:
            tracer.unit = pos
        t0 = time.perf_counter()
        try:
            if unit["kind"] == "all":
                run_all(configs[i], out_dir)
            elif unit["kind"] == "lr_offdiag":
                run_lr_offdiag(out_dir)
            else:
                rec["oracle_current"] = oracle_current(configs[i])
        except Exception:  # one failed unit is reported, the rest still run
            rec["ok"] = False
            rec["error"] = traceback.format_exc()
        rec["seconds"] = time.perf_counter() - t0
        if unit["kind"] != "oracle" and os.path.isdir(out_dir):
            rec["digests"] = _digests(out_dir)
            if tracer:
                tracer.counts.append((pos, "cli.artifact_bytes", _artifact_bytes(out_dir)))
        results.append(rec)

    doc = {"setup_mark": setup_mark, "units": results}
    if not units:
        doc["machine"] = machine()
    if tracer:
        doc["trace"] = {
            "groups": {f"{m}.{a}": g for g, m, a in TRACED},
            "missing": missing,
            "spans": tracer.spans,
            "counts": tracer.counts,
        }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], sys.argv[2]))
