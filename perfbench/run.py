"""nesslab benchmark: end-to-end and per-layer metrics of the ED pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One closed-loop client: the runner starts one
child process (``perfbench/child.py``) at a time, each in a fresh interpreter
with ``src`` on ``PYTHONPATH`` and ``OPENBLAS_NUM_THREADS`` / ``OMP_NUM_THREADS``
/ ``MKL_NUM_THREADS`` set at spawn to min(2, usable cores), and starts the
next one when it exits, until S seconds have passed and at least
MIN_CHILDREN children have run (one batch pair with --trace 1).  The program
is driven only through ``nesslab.cli.run`` and public functions of the layer
modules.

Workloads (the seed draws the inputs; the fixed workloads ignore it):
  sweep_xx10        each child runs ``all`` on SWEEP_K configs drawn from the
                    seed: XX, n = 10, (M, L) = (3, 5), beta in [0.5, 2],
                    |lambda| in [0.2, 1] with random sign, window hann or
                    truncated_gaussian, T in [1.0, 2.5].
  lr_offdiag_xxz10  each child builds ``EvolutionContext.for_interaction`` and
                    runs ``lr_scan(A = B = sigma_x)`` on XXZ(0.5), n = 10, over
                    x in {3, 4, 5}, t in {0, ..., 0.5}.
  acceptance_xx12   ``all`` on the acceptance config (XX, n = 12); one child
                    takes minutes, so it is run by hand, not in the gated set.

With --trace 0 the metrics are per child: wall_s (spawn to exit), cpu_s
(user + sys), peak_rss_mb (ru_maxrss) and setup_s (spawn to the first layer
call: interpreter, imports, config parsing), each the median over the run;
setup_s also takes SETUP_SAMPLES children that stop after set-up.  With
--trace 1 every batch runs twice, untraced then traced, and the traced child
reports span self times, the RSS high-water mark at span exit, and exact
counts; the spans go to ``.perfbench_work/<workload>-<seed>-1/spans.json``.

Correctness gate.  ``reference/<workload>`` holds artifacts recorded when
the benchmark was added (nesslab 0.1.0) for one fixed input per workload (for
the sweep, the anchor config beta = 1, lambda = 0.5, hann, T = 2); the current, the sum-rule lhs
and rel_err and the derivative rel_err of that input, and the LR norms of
every run, are compared against them with the program's own tolerances.
Every ``all`` run must also pass the program's thresholds and residual
limits with zero LR violations, and every sweep config's current must match
a dense ``scipy.linalg.expm`` oracle.  After the timed loop an untimed
verification child computes those oracles, reruns an input that ran only
once, and runs the reference input if it did not run.  A unit fails if it
raises, fails a check, or writes artifacts that differ from an earlier run of
the same input; failures count in ``failed`` and make ``correct`` false.
The last stdout line is the JSON result.
"""

import argparse
import configparser
import csv
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import Callable, NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference")
SRC = os.path.join(os.getcwd(), "src")
WORK = os.path.join(os.getcwd(), ".perfbench_work")

SWEEP_K = 1
SETUP_SAMPLES = 4
MIN_CHILDREN = 3
RUN_DEADLINE_S = 170.0
MANUAL_DEADLINE_S = 900.0

# tolerances of the program and its tests; the gate uses none looser
RESIDUAL_TOL = 1e-10       # steady_state.RESIDUAL_TOL
ORACLE_CURRENT_TOL = 1e-8  # dense expm current oracle (test_steady_state)
LR_REL_TOL = 1e-8          # LR norms against a dense reference (test_dynamics)
QUAD_TOL = 1e-8            # integrate_windowed default tol, relative to 1 + |value|


def xx_config(label, n_sites, L, beta, lam, kind, T):
    return (f"[run]\nlabel = {label}\n[model]\nkind = xx\n[chain]\nn_sites = {n_sites}\n"
            f"[bias]\nbeta = {beta!r}\nlambda = {lam!r}\n[geometry]\nM = 3\nL = {L}\n"
            f"[window]\nkind = {kind}\nT = {T!r}\n")


ANCHOR = {"kind": "all", "config": xx_config("anchor", 10, 5, 1.0, 0.5, "hann", 2.0)}
ACCEPTANCE = {"kind": "all", "config": xx_config("acceptance", 12, 7, 1.0, 0.5, "hann", 2.0)}


def sweep_batches(seed):
    rng = random.Random(seed)
    i = 0
    while True:
        batch = []
        for _ in range(SWEEP_K):
            beta = rng.uniform(0.5, 2.0)
            lam = rng.uniform(0.2, 1.0) * rng.choice((-1.0, 1.0))
            kind = rng.choice(("hann", "truncated_gaussian"))
            T = rng.uniform(1.0, 2.5)
            batch.append({"kind": "all",
                          "config": xx_config(f"sweep-{seed}-{i}", 10, 5, beta, lam, kind, T)})
            i += 1
        yield batch


def fixed_batches(unit):
    while True:
        yield [unit]


LR_OFFDIAG = {"kind": "lr_offdiag"}


class Workload(NamedTuple):
    batches: Callable      # seed -> endless iterator of unit batches, one per child
    reference: dict        # the unit whose recorded artifacts are in reference/<name>
    oracle: bool           # check every drawn config against the dense expm current
    deadline: float


WORKLOADS = {
    "sweep_xx10": Workload(sweep_batches, ANCHOR, True, RUN_DEADLINE_S),
    "lr_offdiag_xxz10": Workload(lambda seed: fixed_batches(LR_OFFDIAG), LR_OFFDIAG,
                                 False, RUN_DEADLINE_S),
    "acceptance_xx12": Workload(lambda seed: fixed_batches(ACCEPTANCE), ACCEPTANCE,
                                False, MANUAL_DEADLINE_S),
}

# exact counts from the traced child, listed so each one is reported (0 where
# no call produced it); the time and RSS groups come from child.TRACED
COUNTS = (
    ("spectral.dim", "count"), ("spectral.basis_mb", "MB"),
    ("spectral.weights_count", "count"), ("dynamics.scan_points_live", "count"),
    ("dynamics.scan_points_excluded", "count"), ("cli.artifact_bytes", "bytes"),
)
CALLS = ("spectral.correlation_kernel", "spectral.kernel_curve", "steady_state.verify_ness")


class Child:
    """Outcome of one child process, timed and measured from the parent."""

    def __init__(self, tag, units, wall, cpu, rss_mb, setup, code, doc, log):
        self.tag, self.units, self.wall, self.cpu, self.rss_mb = tag, units, wall, cpu, rss_mb
        self.setup, self.code, self.doc, self.log = setup, code, doc, log


class Runner:
    def __init__(self, workload, seed, trace, deadline):
        self.workload, self.seed = workload, seed
        self.dir = os.path.join(WORK, f"{workload}-{seed}-{int(trace)}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.threads = min(2, len(os.sched_getaffinity(0)))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(self.threads)
        self.deadline = time.monotonic() + deadline
        self.count = 0

    def spawn(self, units, trace=False, repeat_first=False):
        """Run one child to completion; kill it at the run deadline."""
        self.count += 1
        tag = f"c{self.count}"
        base = os.path.join(self.dir, tag)
        spec = {"out": base, "trace": trace, "repeat_first": repeat_first, "units": units}
        with open(base + ".spec.json", "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        with open(base + ".log", "w", encoding="utf-8") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen([sys.executable, CHILD, base + ".spec.json", base + ".json"],
                                    env=self.env, stdout=log, stderr=subprocess.STDOUT)
            timer = threading.Timer(max(0.0, self.deadline - spawned), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.monotonic() - spawned
            finally:
                timer.cancel()
                timer.join()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        doc = None
        if code == 0 and os.path.exists(base + ".json"):
            with open(base + ".json", encoding="utf-8") as fh:
                doc = json.load(fh)
        setup = doc["setup_mark"] - spawned if doc else None
        return Child(tag, units, wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / 1024.0, setup, code, doc, base + ".log")


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_lr(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return [{"x": int(r["x"]), "t": float(r["t"]), "emp": float(r["empirical_norm"]),
                 "bound": float(r["bound"]), "excluded": r["excluded_flag"] == "1"}
                for r in csv.DictReader(fh)]


def check_lr(rows, ref):
    problems = []
    if [(r["x"], r["t"], r["excluded"]) for r in rows] != \
            [(r["x"], r["t"], r["excluded"]) for r in ref]:
        return ["LR scan grid or exclusions differ from the reference"]
    for r, q in zip(rows, ref):
        if r["excluded"]:
            continue
        if r["emp"] > r["bound"]:
            problems.append(f"LR violation at x={r['x']} t={r['t']}")
        if abs(r["emp"] - q["emp"]) >= LR_REL_TOL * max(1e-12, q["emp"]):
            problems.append(f"LR norm at x={r['x']} t={r['t']}: {r['emp']!r} vs {q['emp']!r}")
        if abs(r["bound"] - q["bound"]) > 1e-12 * q["bound"]:
            problems.append(f"LR bound at x={r['x']} t={r['t']} differs from the reference")
    return problems


def check_all(out, lr_ref, oracle=None, ref=None):
    """Problems found in the artifacts of one ``all`` run (empty when it passes)."""
    limits = configparser.ConfigParser()
    limits.read(os.path.join(out, "config.resolved.ini"))
    ness = read_json(os.path.join(out, "ness.json"))
    sr = read_json(os.path.join(out, "sumrule.json"))
    dv = read_json(os.path.join(out, "derivative.json"))
    sg = read_json(os.path.join(out, "singularity.json"))
    lrs = read_json(os.path.join(out, "lr_summary.json"))
    problems = []
    if not ness["is_ness"]:
        problems.append("state is not a current-carrying steady state")
    for key in ("stationarity_residual", "translation_residual", "symmetry_residual"):
        if ness[key] > RESIDUAL_TOL:
            problems.append(f"{key} {ness[key]:.3e} exceeds {RESIDUAL_TOL}")
    current = ness["current_value"]
    if sr["current"] != current:
        problems.append("sum-rule current differs from the NESS current")
    if sr["rel_err"] > limits.getfloat("checks", "sum_rule_rel_err"):
        problems.append(f"sum-rule rel_err {sr['rel_err']:.4f} over its limit")
    if not sg["no_current"] and dv["rel_err"] > limits.getfloat("checks", "derivative_rel_err"):
        problems.append(f"derivative rel_err {dv['rel_err']:.4f} over its limit")
    if lrs["violations"]:
        problems.append(f"{lrs['violations']} LR violations")
    problems += check_lr(read_lr(os.path.join(out, "lr_scan.csv")), lr_ref)
    if oracle is not None and abs(current - oracle) >= ORACLE_CURRENT_TOL:
        problems.append(f"current {current!r} vs expm oracle {oracle!r}")
    if ref is not None:
        rsr = read_json(os.path.join(ref, "sumrule.json"))
        rdv = read_json(os.path.join(ref, "derivative.json"))
        if abs(current - rsr["current"]) >= ORACLE_CURRENT_TOL:
            problems.append(f"current {current!r} vs reference {rsr['current']!r}")
        if abs(sr["lhs"] - rsr["lhs"]) > QUAD_TOL * (1.0 + abs(rsr["lhs"])):
            problems.append(f"sum-rule lhs {sr['lhs']!r} vs reference {rsr['lhs']!r}")
        for name, got, want in (("sum-rule rel_err", sr["rel_err"], rsr["rel_err"]),
                                ("derivative rel_err", dv["rel_err"], rdv["rel_err"])):
            if abs(got - want) > QUAD_TOL:
                problems.append(f"{name} {got!r} vs reference {want!r}")
    return problems


class Gate:
    """Checks every unit once and keeps the first digests of each input."""

    def __init__(self, name, reference):
        self.ref_dir = os.path.join(REFERENCE, name)
        self.reference = reference
        self.lr_ref = read_lr(os.path.join(self.ref_dir, "lr_scan.csv"))
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def fail(self, message):
        self.failed += 1
        self.messages.append(message)

    def check(self, child, oracles):
        if child.doc is None:
            for unit in child.units:
                if unit["kind"] != "oracle":
                    self.attempted += 1
                    self.fail(f"{child.tag}: exited {child.code} (see {child.log})")
            return
        for rec in child.doc["units"]:
            unit = child.units[rec["unit"]]
            if unit["kind"] == "oracle":
                continue
            self.attempted += 1
            problems = [] if rec["ok"] else [rec["error"].strip().splitlines()[-1]]
            if rec["ok"] and unit["kind"] == "all":
                ref = self.ref_dir if unit == self.reference else None
                try:
                    problems += check_all(rec["out"], self.lr_ref, oracles.get(unit["config"]),
                                          ref)
                except (OSError, KeyError, ValueError) as exc:
                    problems.append(f"unreadable artifacts: {exc!r}")
            elif rec["ok"]:
                problems += check_lr(read_lr(os.path.join(rec["out"], "lr_scan.csv")),
                                     self.lr_ref)
            if rec["ok"]:
                first = self.first.setdefault(json.dumps(unit, sort_keys=True), rec["digests"])
                if rec["digests"] != first:
                    problems.append("artifacts differ from an earlier run of the same input")
            if problems:
                self.fail(f"{child.tag} unit {rec['unit']} ({unit['kind']}): "
                          + "; ".join(problems))


def median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(children):
    """Per-unit self times, HWMs and counts from traced children; medians over units.

    The RSS high-water marks come from each child's first unit only: later
    units start at the mark the first one left.
    """
    per_unit, first_units, groups = [], [], {}
    for child in children:
        if child.doc is None:
            continue
        tr = child.doc["trace"]
        groups.update(dict.fromkeys(tr["groups"].values()))
        spans = tr["spans"]
        covered = [0.0] * len(spans)
        for name, start, end, parent, unit, hwm in spans:
            if parent is not None:
                covered[parent] += end - start
        units = {}
        for i, (name, start, end, parent, unit, hwm) in enumerate(spans):
            m = units.setdefault(unit, {})
            group = tr["groups"][name]
            m[f"{group}_s"] = m.get(f"{group}_s", 0.0) + (end - start - covered[i])
            m[f"{group}.rss_hwm_mb"] = max(m.get(f"{group}.rss_hwm_mb", 0.0), hwm)
            if group in CALLS:
                m[f"{group}_calls"] = m.get(f"{group}_calls", 0) + 1
        for unit, name, value in tr["counts"]:
            units.setdefault(unit, {})[name] = value
        per_unit += units.values()
        first_units.append(units.get(0, {}))
    names = [(f"{g}_s", "s", per_unit) for g in groups]
    names += [(f"{g}.rss_hwm_mb", "MB", first_units) for g in groups]
    names += [(n, u, per_unit) for n, u in COUNTS]
    names += [(f"{g}_calls", "count", per_unit) for g in CALLS]
    return {metric: (median([u.get(metric, 0) for u in pool]), unit)
            for metric, unit, pool in names}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nesslab", "__init__.py")):
        sys.stderr.write(f"no nesslab package under {SRC}; run from the repository root\n")
        return 2
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    runner = Runner(args.workload, args.seed, trace, workload.deadline)
    gate = Gate(args.workload, workload.reference)

    warm = runner.spawn([])  # compiles bytecode, fills the file cache, reports versions
    if warm.doc is None:
        sys.stderr.write(f"child could not start; see {warm.log}\n")
        return 1
    setups = [runner.spawn([]) for _ in range(SETUP_SAMPLES)]

    batches = workload.batches(args.seed)
    timed, traced = [], []
    min_children = 1 if trace else MIN_CHILDREN
    start = time.monotonic()
    while ((len(timed) < min_children or time.monotonic() - start < args.seconds)
           and time.monotonic() < runner.deadline):
        batch = next(batches)
        timed.append(runner.spawn(batch, repeat_first=trace))
        if trace:
            traced.append(runner.spawn(batch, trace=True, repeat_first=True))
    measured = time.monotonic() - start

    # untimed verification: dense oracles, a rerun of an input that ran only
    # once (for byte-identical artifacts), the reference unit if it did not run
    ran = [u for c in timed + traced for u in c.units]
    configs = list(dict.fromkeys(u["config"] for u in ran if u["kind"] == "all"))
    verify = [{"kind": "oracle", "config": c} for c in configs] if workload.oracle else []
    if ran and ran.count(ran[0]) == 1:
        verify.append(ran[0])
    if workload.reference not in ran:
        verify.append(workload.reference)
    checker = runner.spawn(verify) if verify else None
    oracles = {}
    if checker is not None and checker.doc is not None:
        for rec in checker.doc["units"]:
            unit = verify[rec["unit"]]
            if unit["kind"] == "oracle" and rec["ok"]:
                oracles[unit["config"]] = rec["oracle_current"]
    for c in timed + traced + ([checker] if checker else []):
        gate.check(c, oracles)
    if workload.oracle:
        for c in configs:
            if c not in oracles:
                gate.fail(f"no expm oracle for {c.splitlines()[1]}")

    ok_timed = [c for c in timed if c.doc is not None]
    if not ok_timed:
        sys.stderr.write("no child of the timed loop completed\n")
        sys.stderr.write("".join(m + "\n" for m in gate.messages))
        return 1

    machine = dict(warm.doc["machine"], nproc=os.cpu_count(), blas_threads=runner.threads,
                   src_lines=src_lines())
    print("machine " + json.dumps(machine, sort_keys=True))
    for c in timed + traced:
        secs = " ".join(f"{r['seconds']:.3f}" for r in c.doc["units"]) if c.doc else "-"
        print(f"child {c.tag} exit {c.code} wall {c.wall:.3f} s cpu {c.cpu:.3f} s "
              f"rss {c.rss_mb:.1f} MB units [{secs}]")

    setup_values = [c.setup for c in setups + timed if c.setup is not None]
    if trace:
        metrics = layer_metrics(traced)
        pairs = [(u, t) for u, t in zip(timed, traced) if u.doc and t.doc]
        metrics["trace.overhead_s"] = (median([t.wall - u.wall for u, t in pairs]), "s")
        for name, pos in (("trace.cold_unit_s", 0), ("trace.warm_unit_s", -1)):
            metrics[name] = (median([u.doc["units"][pos]["seconds"] for u, _ in pairs]), "s")
        write_spans(runner, traced)
        for name in sorted({m for c in traced if c.doc for m in c.doc["trace"]["missing"]}):
            print(f"not traced (no such attribute): {name}")
    else:
        metrics = {
            "wall_s": (median([c.wall for c in ok_timed]), "s"),
            "cpu_s": (median([c.cpu for c in ok_timed]), "s"),
            "setup_s": (median(setup_values), "s"),
            "peak_rss_mb": (median([c.rss_mb for c in ok_timed]), "MB"),
        }
    failed, attempted = gate.failed, max(1, gate.attempted)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(timed) + len(traced)} children in {measured:.1f} s, "
          f"{len(setup_values)} set-up samples")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:.6g} {unit}")
    print(f"  {'failed_frac':44s} {failed / attempted:.6g} ({failed} of {attempted})")
    for m in gate.messages:
        print("FAIL " + m)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def src_lines():
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def write_spans(runner, traced):
    rows = []
    for c in traced:
        if c.doc is None:
            continue
        run_id = f"{runner.workload}-{runner.seed}-{c.tag}"
        for name, start, end, parent, unit, hwm in c.doc["trace"]["spans"]:
            rows.append({"name": name, "start": start, "end": end, "parent": parent,
                         "workload": runner.workload, "run_id": run_id, "unit": unit,
                         "rss_hwm_mb": hwm})
    with open(os.path.join(runner.dir, "spans.json"), "w", encoding="utf-8") as fh:
        json.dump(rows, fh)


if __name__ == "__main__":
    raise SystemExit(main())
