"""Config parsing, subcommand artifacts, exit codes, determinism."""

import json
import logging
import math
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import Phase, find, given, settings, strategies as st

import nesslab as nl
import nesslab.cli as cli
from nesslab.errors import ConfigError
from nesslab.steady_state import StationaryState

SMALL_CONFIG = """\
[run]
schema_version = 1
label = clitest

[chain]
n_sites = 8

[bias]
beta = 1.0
lambda = 0.5

[geometry]
M = 2
L = 4

[window]
kind = hann
T = 1.5

[scan]
x_values = 3
t_values = 0.0, 0.2

[checks]
epsilon_windows = 0.2, 0.5
"""


# canonical_text() of SMALL_CONFIG: every key once, in table order
SMALL_CANONICAL = """\
[run]
schema_version = 1
label = clitest

[model]
kind = xx
lambda_aniso = 0.0
t_hop = 1.0
v = 0.5

[chain]
n_sites = 8
boundary = periodic

[bias]
beta = 1.0
lambda = 0.5

[geometry]
M = 2
L = 4

[window]
kind = hann
T = 1.5

[scan]
x_values = 3
t_values = 0.0, 0.2

[checks]
sum_rule_rel_err = 0.05
derivative_rel_err = 0.1
conservation_tol = 1e-12
epsilon_windows = 0.2, 0.5
"""


@pytest.fixture(scope="module")
def small_cfg_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "small.ini"
    p.write_text(SMALL_CONFIG)
    return str(p)


class TestConfig:
    def test_defaults_and_parse(self):
        cfg = cli.parse_config(SMALL_CONFIG, env={})
        assert cfg.n_sites == 8 and cfg.M == 2 and cfg.L == 4
        assert cfg.window_T == 1.5
        assert cfg.x_values == (3,)
        assert cfg.epsilon_windows == (0.2, 0.5)

    def test_round_trip_bit_exact(self):
        cfg = cli.parse_config(SMALL_CONFIG, env={})
        text = cfg.canonical_text()
        again = cli.parse_config(text, env={})
        assert again == cfg
        assert again.canonical_text() == text

    @pytest.mark.parametrize("env", [
        {"NESSLAB_RUN__LABEL": "run 2 = [x], 'naive' caf\u00e9"},
        {"NESSLAB_RUN__LABEL": ""},
        {"NESSLAB_MODEL__KIND": "xxz", "NESSLAB_MODEL__LAMBDA_ANISO": "0.7"},
        {"NESSLAB_MODEL__KIND": "fermion", "NESSLAB_MODEL__T_HOP": "0.3",
         "NESSLAB_MODEL__V": "0.1 -0.2"},
    ], ids=["label", "empty_label", "xxz", "fermion"])
    def test_canonical_text_parses_back(self, env):
        # config.resolved.ini names the run that was made
        cfg = cli.parse_config(SMALL_CONFIG, env=env)
        assert cli.parse_config(cfg.canonical_text(), env={}) == cfg

    def test_canonical_text_golden(self):
        assert cli.parse_config(SMALL_CONFIG, env={}).canonical_text() == SMALL_CANONICAL

    def test_readme_example_parses(self):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        example = open(readme, encoding="utf-8").read().split("```ini\n")[1].split("```")[0]
        cfg = cli.parse_config(example, env={})
        assert cfg.label == "acceptance" and cfg.n_sites == 12

    def test_resolved_scan_section(self):
        # the resolved config lists only the scan options the pipeline reads
        text = cli.parse_config(SMALL_CONFIG, env={}).canonical_text()
        scan = text.split("[scan]\n")[1].split("\n\n")[0].splitlines()
        assert [line.split(" = ")[0] for line in scan] == ["x_values", "t_values"]

    def test_float_values_survive(self):
        cfg = cli.parse_config(SMALL_CONFIG, env={"NESSLAB_BIAS__BETA": "0.1"})
        assert cfg.beta == 0.1
        text = cfg.canonical_text()
        assert cli.parse_config(text, env={}).beta == 0.1

    def test_env_override(self):
        cfg = cli.parse_config(SMALL_CONFIG, env={"NESSLAB_CHAIN__N_SITES": "10"})
        assert cfg.n_sites == 10

    def test_edge_values_allowed(self):
        # an unbounded energy window and zero tolerances are valid settings
        cfg = cli.parse_config(SMALL_CONFIG, env={"NESSLAB_CHECKS__EPSILON_WINDOWS": "0.2 inf",
                                                  "NESSLAB_CHECKS__CONSERVATION_TOL": "0"})
        assert cfg.epsilon_windows == (0.2, math.inf)
        assert cfg.conservation_tol == 0.0

    def test_bad_schema_version(self):
        with pytest.raises(ConfigError):
            cli.parse_config("[run]\nschema_version = 99\n", env={})

    def test_bad_values(self):
        with pytest.raises(ConfigError):
            cli.parse_config("[model]\nkind = ising\n", env={})
        with pytest.raises(ConfigError):
            cli.parse_config("[bias]\nbeta = warm\n", env={})


class TestSubcommands:
    def test_build_artifacts(self, small_cfg_path, tmp_path):
        out = str(tmp_path / "build")
        code = cli.main(["build", "--config", small_cfg_path, "--out", out])
        assert code == 0
        doc = json.loads(open(os.path.join(out, "build.json")).read())
        assert doc["conservation_residual"] <= 1e-12
        # the stored current matrix is the closed-form XX current
        mat = np.array([complex(re, im) for re, im in doc["current_matrix"]])
        mat = mat.reshape(4, 4)
        S1, S2, _ = nl.models.SPIN_HALF
        expect = -nl.kron_le([S2, S1]) + nl.kron_le([S1, S2])
        assert np.linalg.norm(mat - expect) < 1e-12
        assert doc["current_support"] == [0, 1]

    def test_build_interaction_reads_back(self, tmp_path):
        # T = 1.5 exceeds this model's wrap horizon on 8 sites
        cfg = cli.parse_config(SMALL_CONFIG, env={
            "NESSLAB_MODEL__KIND": "fermion", "NESSLAB_MODEL__T_HOP": "0.7",
            "NESSLAB_MODEL__V": "0.3", "NESSLAB_WINDOW__T": "0.5"})
        out = str(tmp_path / "build")
        assert cli.run("build", cfg, out) == 0
        doc = json.loads(open(os.path.join(out, "build.json")).read())["interaction"]
        phi, _ = nl.build_fermion_model(0.7, [0.3])
        assert doc["schema"] == "nesslab.interaction/1"
        assert doc["range"] == phi.r and doc["site_dim"] == phi.site_dim
        assert len(doc["terms"]) == len(phi.terms)
        for (offsets, mat), entry in zip(phi.terms, doc["terms"]):
            assert tuple(entry["offsets"]) == offsets
            back = np.array([complex(re, im) for re, im in entry["matrix"]]).reshape(mat.shape)
            assert back.tobytes() == mat.tobytes()

    def test_ness_thermal_not_ness(self, small_cfg_path, tmp_path):
        out = str(tmp_path / "ness0")
        code = cli.main(["ness", "--config", small_cfg_path, "--out", out])
        assert code == 0
        env = {"NESSLAB_BIAS__LAMBDA": "0.0"}
        old = os.environ.get("NESSLAB_BIAS__LAMBDA")
        os.environ["NESSLAB_BIAS__LAMBDA"] = "0.0"
        try:
            out2 = str(tmp_path / "ness1")
            code = cli.main(["ness", "--config", small_cfg_path, "--out", out2])
            assert code == 0
            doc = json.loads(open(os.path.join(out2, "ness.json")).read())
            assert abs(doc["current_value"]) < 1e-10
            assert doc["is_ness"] is False
        finally:
            if old is None:
                del os.environ["NESSLAB_BIAS__LAMBDA"]
            else:
                os.environ["NESSLAB_BIAS__LAMBDA"] = old

    def test_exit_code_config_error(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[model]\nkind = ising\n")
        out = str(tmp_path / "out")
        assert cli.main(["build", "--config", str(bad), "--out", out]) == 2
        err = json.loads(open(os.path.join(out, "error.json")).read())
        assert err["error"] == "config"

    def test_exit_code_missing_config(self, tmp_path):
        out = str(tmp_path / "out")
        assert cli.main(["build", "--config", str(tmp_path / "nope.ini"), "--out", out]) == 2

    @pytest.mark.parametrize("taken", [False, True], ids=["empty", "existing_file"])
    def test_exit_code_unusable_out(self, small_cfg_path, tmp_path, monkeypatch, capsys, taken):
        # an --out that cannot be a directory is a config error, reported on stderr only
        monkeypatch.chdir(tmp_path)
        out = ""
        if taken:
            out = str(tmp_path / "taken")
            open(out, "w").close()
        assert cli.main(["build", "--config", small_cfg_path, "--out", out]) == 2
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "config"
        assert sorted(os.listdir(tmp_path)) == (["taken"] if taken else [])
        if taken:
            assert os.path.getsize(out) == 0

    def test_exit_code_geometry(self, small_cfg_path, tmp_path):
        out = str(tmp_path / "geom")
        os.environ["NESSLAB_GEOMETRY__L"] = "6"  # L + M + r = 9 >= n_sites = 8
        try:
            code = cli.main(["build", "--config", small_cfg_path, "--out", out])
        finally:
            del os.environ["NESSLAB_GEOMETRY__L"]
        assert code == 3
        err = json.loads(open(os.path.join(out, "error.json")).read())
        assert err["error"] == "precondition"

    def test_exit_code_numerical(self, small_cfg_path, tmp_path):
        out = str(tmp_path / "num")
        os.environ["NESSLAB_CHECKS__SUM_RULE_REL_ERR"] = "1e-9"
        try:
            code = cli.main(["sumrule", "--config", small_cfg_path, "--out", out])
        finally:
            del os.environ["NESSLAB_CHECKS__SUM_RULE_REL_ERR"]
        assert code == 4
        assert os.path.exists(os.path.join(out, "sumrule.json"))

    @pytest.mark.parametrize("key, value", [
        ("NESSLAB_CHAIN__N_SITES", "1"),
        ("NESSLAB_BIAS__BETA", "-1"),
        ("NESSLAB_BIAS__BETA", "nan"),
        ("NESSLAB_WINDOW__T", "0"),
        ("NESSLAB_WINDOW__T", "inf"),
        ("NESSLAB_CHECKS__SUM_RULE_REL_ERR", "-1"),
        ("NESSLAB_CHECKS__DERIVATIVE_REL_ERR", "-1"),
        ("NESSLAB_CHECKS__CONSERVATION_TOL", "-1"),
        ("NESSLAB_CHECKS__CONSERVATION_TOL", "nan"),
        ("NESSLAB_CHECKS__EPSILON_WINDOWS", "nan"),
        ("NESSLAB_CHECKS__EPSILON_WINDOWS", "0.2 -0.5"),
        ("NESSLAB_CHECKS__EPSILON_WINDOWS", "0"),
        ("NESSLAB_CHECKS__EPSILON_WINDOWS", ""),
        ("NESSLAB_SCAN__X_VALUES", ""),
        ("NESSLAB_SCAN__T_VALUES", ""),
    ])
    def test_exit_code_bad_value(self, small_cfg_path, tmp_path, monkeypatch, key, value):
        out = str(tmp_path / "bad")
        monkeypatch.setenv(key, value)
        assert cli.main(["ness", "--config", small_cfg_path, "--out", out]) == 2
        err = json.loads(open(os.path.join(out, "error.json")).read())
        assert err["error"] == "config"
        assert not os.path.exists(os.path.join(out, "config.resolved.ini"))

    @pytest.mark.parametrize("text, env, named", [
        (SMALL_CONFIG.replace("n_sites = 8", "n_site = 8"), {}, "[chain] n_site"),
        (SMALL_CONFIG + "\n[chains]\nn_sites = 8\n", {}, "[chains] n_sites"),
        ("[DEFAULT]\nbeta = 2.0\n\n" + SMALL_CONFIG, {}, "[DEFAULT] beta"),
        (SMALL_CONFIG, {"NESSLAB_SCAN__X_VALUE": "9"}, "[scan] x_value"),
    ], ids=["typo_key", "unknown_section", "default_key", "unknown_override"])
    def test_exit_code_unknown_key(self, tmp_path, monkeypatch, text, env, named):
        cfg = tmp_path / "typo.ini"
        cfg.write_text(text)
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        out = str(tmp_path / "typo")
        assert cli.main(["ness", "--config", str(cfg), "--out", out]) == 2
        err = json.loads(open(os.path.join(out, "error.json")).read())
        assert err["error"] == "config" and named in err["message"]
        assert not os.path.exists(os.path.join(out, "config.resolved.ini"))

    @pytest.mark.parametrize("label", ["a ;b", "a#b", "; a", " a", "a ", "a\nb", "a\rb"])
    def test_exit_code_label_not_written_back(self, small_cfg_path, tmp_path, monkeypatch,
                                              label):
        # canonical_text would write a label that parses as another value or key
        monkeypatch.setenv("NESSLAB_RUN__LABEL", label)
        out = str(tmp_path / "label")
        assert cli.main(["build", "--config", small_cfg_path, "--out", out]) == 2
        err = json.loads(open(os.path.join(out, "error.json")).read())
        assert err["error"] == "config" and "[run] label" in err["message"]
        assert not os.path.exists(os.path.join(out, "config.resolved.ini"))

    @pytest.mark.parametrize("kind, key, value", [
        ("xx", "lambda_aniso", "0.7"), ("fermion", "lambda_aniso", "-0.5"),
        ("xx", "t_hop", "2.0"), ("xxz", "t_hop", "0.5"),
        ("xx", "v", "0.1"), ("xxz", "v", ""),
    ])
    def test_exit_code_key_of_another_model(self, small_cfg_path, tmp_path, monkeypatch,
                                            kind, key, value):
        # the chosen model never reads the key, so the resolved config would misname the run
        monkeypatch.setenv("NESSLAB_MODEL__KIND", kind)
        monkeypatch.setenv(f"NESSLAB_MODEL__{key.upper()}", value)
        out = str(tmp_path / "model")
        assert cli.main(["build", "--config", small_cfg_path, "--out", out]) == 2
        err = json.loads(open(os.path.join(out, "error.json")).read())
        assert err["error"] == "config" and f"[model] {key}" in err["message"]
        assert not os.path.exists(os.path.join(out, "config.resolved.ini"))

    @pytest.mark.parametrize("env, code, kind", [
        # exp(-beta (E - lambda J)) overflows: no NaN may reach an artifact
        ({"NESSLAB_BIAS__BETA": "1e308"}, 4, "numerical-check"),
        ({"NESSLAB_BIAS__LAMBDA": "1e308"}, 4, "numerical-check"),
        ({"NESSLAB_MODEL__KIND": "fermion", "NESSLAB_MODEL__T_HOP": "0",
          "NESSLAB_MODEL__V": "0"}, 3, "precondition"),
    ], ids=["beta_overflow", "lambda_overflow", "zero_interaction"])
    def test_exit_code_degenerate_input(self, small_cfg_path, tmp_path, monkeypatch,
                                        env, code, kind):
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        out = str(tmp_path / "degenerate")
        assert cli.main(["all", "--config", small_cfg_path, "--out", out]) == code
        assert json.loads(open(os.path.join(out, "error.json")).read())["error"] == kind
        for name in os.listdir(out):
            assert not re.search(r"\bnan\b", open(os.path.join(out, name)).read(), re.I), name

    def test_exit_code_self_check(self, small_cfg_path, tmp_path, monkeypatch):
        # a failed internal residual check is a numerical-check failure, not a crash
        monkeypatch.setattr(nl.steady_state, "RESIDUAL_TOL", -1.0)
        out = str(tmp_path / "self")
        assert cli.main(["ness", "--config", small_cfg_path, "--out", out]) == 4
        err = json.loads(open(os.path.join(out, "error.json")).read())
        assert err["error"] == "numerical-check"

    def test_fail_fast_before_heavy_work(self, small_cfg_path, tmp_path):
        # an inadmissible geometry must be rejected before artifacts appear
        out = str(tmp_path / "fast")
        os.environ["NESSLAB_GEOMETRY__M"] = "5"
        try:
            code = cli.main(["all", "--config", small_cfg_path, "--out", out])
        finally:
            del os.environ["NESSLAB_GEOMETRY__M"]
        assert code == 3
        assert not os.path.exists(os.path.join(out, "build.json"))
        assert not os.path.exists(os.path.join(out, "ness.json"))

    @pytest.mark.parametrize("env", [
        {"NESSLAB_CHAIN__N_SITES": "15"},
        # build_fermion_model checks its terms on r + 2 = 15 sites
        {"NESSLAB_MODEL__KIND": "fermion", "NESSLAB_MODEL__V": " ".join(["0.1"] * 13)},
    ], ids=["chain", "fermion_range"])
    def test_dimension_cap(self, small_cfg_path, tmp_path, monkeypatch, env):
        # 2**15 states exceed cli.MAX_DIM: refused before any artifact is written
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        out = str(tmp_path / "cap")
        assert cli.main(["all", "--config", small_cfg_path, "--out", out]) == 3
        err = json.loads(open(os.path.join(out, "error.json")).read())
        assert err["error"] == "precondition"
        assert not os.path.exists(os.path.join(out, "config.resolved.ini"))
        assert not os.path.exists(os.path.join(out, "build.json"))

    def test_all_computes_three_residuals(self, small_cfg_path, tmp_path):
        # ness.json reports the certificates of [rho, H], [rho, T] and [rho, N_tot]
        out = str(tmp_path / "a")
        assert cli.main(["all", "--config", small_cfg_path, "--out", out]) == 0
        doc = json.loads(open(os.path.join(out, "ness.json")).read())
        phi, spec = nl.build_xx_model()
        chain = nl.ChainConfig(8, 2)
        basis = nl.build_biased_gibbs(phi, spec, nl.BiasSpec(1.0, 0.5), chain).basis
        assert doc["stationarity_residual"] == basis.residual(nl.hamiltonian(phi, chain))
        assert doc["translation_residual"] == basis.residual(nl.shift_unitary(chain))
        assert doc["symmetry_residual"] == basis.residual(
            nl.models.charge_sparse(spec, (0, 7), chain))
        assert max(doc[k] for k in ("stationarity_residual", "translation_residual",
                                    "symmetry_residual")) <= 1e-12

    def test_all_measures_each_certificate_and_the_current_once(self, tmp_path, monkeypatch):
        # the state keeps residual(H), residual(T) and <j_0>; every step that
        # reads them reuses them, and verify_ness adds only residual(N_tot)
        phi, spec = nl.build_xx_model()
        chain = nl.ChainConfig(8, 2)
        named = {"H": nl.hamiltonian(phi, chain, sparse=True), "T": nl.shift_unitary(chain),
                 "N_tot": nl.models.charge_sparse(spec, (0, 7), chain)}
        j0 = nl.current_local(phi, spec, chain)
        counts = dict.fromkeys([*named, "other", "<j_0>"], 0)
        residual, expect = nl.JointBasis.residual, StationaryState.expect

        def counted_residual(basis, A):
            counts[next((k for k, B in named.items() if abs(A - B).sum() == 0), "other")] += 1
            return residual(basis, A)

        def counted_expect(state, A):
            if (isinstance(A, nl.LocalOperator) and A.support == j0.support
                    and np.array_equal(A.coeffs, j0.coeffs)):
                counts["<j_0>"] += 1
            return expect(state, A)

        monkeypatch.setattr(nl.JointBasis, "residual", counted_residual)
        monkeypatch.setattr(StationaryState, "expect", counted_expect)
        assert cli.run("all", cli.parse_config(SMALL_CONFIG, env={}), str(tmp_path)) == 0
        assert counts == {"H": 1, "T": 1, "N_tot": 1, "other": 0, "<j_0>": 1}

    def test_sumrule_without_current(self, small_cfg_path, tmp_path, monkeypatch):
        # at lambda = 0 both sides of the sum rule are rounding noise: the check
        # is their absolute difference, and rel_err is reported as it comes out
        monkeypatch.setenv("NESSLAB_BIAS__LAMBDA", "0")
        out = str(tmp_path / "sr0")
        assert cli.main(["sumrule", "--config", small_cfg_path, "--out", out]) == 0
        doc = json.loads(open(os.path.join(out, "sumrule.json")).read())
        assert doc["no_current"] is True
        assert doc["abs_err"] <= 1e-9 and math.isfinite(doc["rel_err"])

    @pytest.mark.parametrize("kind, lam, code", [
        ("xxz", "0", 0), ("xxz", "0.5", 3), ("fermion", "0", 0), ("fermion", "0.5", 3),
    ])
    def test_unbiased_interacting_models(self, small_cfg_path, tmp_path, monkeypatch,
                                         kind, lam, code):
        # exp(-beta H) needs no commuting current; a bias does
        monkeypatch.setenv("NESSLAB_MODEL__KIND", kind)
        if kind == "xxz":
            monkeypatch.setenv("NESSLAB_MODEL__LAMBDA_ANISO", "0.5")
        else:  # t_hop = 1 puts the wrap horizon of 8 sites at T = 1.0
            monkeypatch.setenv("NESSLAB_WINDOW__T", "0.8")
        monkeypatch.setenv("NESSLAB_BIAS__LAMBDA", lam)
        out = str(tmp_path / "thermal")
        assert cli.main(["all", "--config", small_cfg_path, "--out", out]) == code
        if code == 0:
            ness = json.loads(open(os.path.join(out, "ness.json")).read())
            assert ness["is_stationary"] and not ness["is_ness"]
            assert json.loads(open(os.path.join(out, "sumrule.json")).read())["no_current"]
        else:  # refused before the first step
            err = json.loads(open(os.path.join(out, "error.json")).read())
            assert err["error"] == "precondition" and "commute" in err["message"]
            assert not os.path.exists(os.path.join(out, "build.json"))

    def test_all_on_open_chain_refused_before_diagonalization(self, small_cfg_path, tmp_path,
                                                              monkeypatch):
        # the biased state needs a periodic chain; build and verify-lr do not
        def no_eigh(*args, **kwargs):
            raise AssertionError("all diagonalized H before refusing the open chain")

        monkeypatch.setattr(nl.JointBasis, "for_interaction", no_eigh)
        monkeypatch.setenv("NESSLAB_CHAIN__BOUNDARY", "open")
        out = str(tmp_path / "open")
        assert cli.main(["all", "--config", small_cfg_path, "--out", out]) == 3
        err = json.loads(open(os.path.join(out, "error.json")).read())
        assert err["error"] == "precondition" and "periodic" in err["message"]
        assert not os.path.exists(os.path.join(out, "build.json"))

    @pytest.mark.parametrize("key,value", [("X_VALUES", "1"), ("T_VALUES", "50.0")])
    def test_bad_scan_grid_refused_before_diagonalization(self, small_cfg_path, tmp_path,
                                                          monkeypatch, key, value):
        # x <= d1 + d2, or every point beyond the wrap horizon
        def no_eigh(*args, **kwargs):
            raise AssertionError("the scan diagonalized H before refusing its grid")

        monkeypatch.setattr(nl.JointBasis, "for_interaction", no_eigh)
        monkeypatch.setenv(f"NESSLAB_SCAN__{key}", value)
        out = str(tmp_path / "lr")
        assert cli.main(["verify-lr", "--config", small_cfg_path, "--out", out]) == 3
        assert json.loads(open(os.path.join(out, "error.json")).read())["error"] == "precondition"
        assert not os.path.exists(os.path.join(out, "lr_scan.csv"))

    def test_verify_lr_and_sumrule_artifacts(self, small_cfg_path, tmp_path):
        out = str(tmp_path / "lr")
        assert cli.main(["verify-lr", "--config", small_cfg_path, "--out", out]) == 0
        lines = open(os.path.join(out, "lr_scan.csv")).read().strip().split("\n")
        assert lines[0] == "x,t,empirical_norm,bound,excluded_flag"
        assert len(lines) == 3  # one x, two t
        summary = json.loads(open(os.path.join(out, "lr_summary.json")).read())
        assert summary["violations"] == 0
        out2 = str(tmp_path / "sr")
        assert cli.main(["sumrule", "--config", small_cfg_path, "--out", out2]) == 0
        doc = json.loads(open(os.path.join(out2, "sumrule.json")).read())
        assert doc["rel_err"] <= 0.05

    def test_all_makes_one_table_pass_per_term_class(self, tmp_path, monkeypatch):
        # the sum rule and the spectral function reduce the same per-term tables
        passes = []
        table = nl.spectral._transfer_table

        def counted(*args):
            passes.append(args)
            return table(*args)

        monkeypatch.setattr(nl.spectral, "_transfer_table", counted)
        assert cli.run("all", cli.parse_config(SMALL_CONFIG, env={}), str(tmp_path)) == 0
        assert len(passes) == len(nl.build_xx_model()[0].terms) == 1

    def test_all_looks_up_each_layer_at_call_time(self, tmp_path, monkeypatch):
        # a profiler that rebinds these module attributes must see every call
        names = [("dynamics", "lr_scan"), ("spectral", "correlation_kernel"),
                 ("spectral", "sum_rule_check"), ("spectral", "spectral_function_rho"),
                 ("spectral", "momentum_derivative_check"),
                 ("spectral", "singularity_diagnostic"),
                 ("steady_state", "build_biased_gibbs"), ("steady_state", "verify_ness")]
        calls = dict.fromkeys(names, 0)

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module, attr in names:
            owner = getattr(nl, module)
            monkeypatch.setattr(owner, attr, counted((module, attr), getattr(owner, attr)))
        assert cli.run("all", cli.parse_config(SMALL_CONFIG, env={}), str(tmp_path)) == 0
        assert all(calls.values()), calls

    def test_spectral_artifacts(self, small_cfg_path, tmp_path):
        out = str(tmp_path / "sp")
        assert cli.main(["spectral", "--config", small_cfg_path, "--out", out]) == 0
        doc = json.loads(open(os.path.join(out, "derivative.json")).read())
        assert doc["rel_err"] <= 0.10
        diag = json.loads(open(os.path.join(out, "singularity.json")).read())
        assert diag["no_current"] is False


def assert_same_artifacts(out1, out2):
    names = sorted(os.listdir(out1))
    assert names == sorted(os.listdir(out2))
    for name in names:
        a = open(os.path.join(out1, name), "rb").read()
        b = open(os.path.join(out2, name), "rb").read()
        assert a == b, f"artifact {name} differs between reruns"


class TestDeterminism:
    def test_rerun_byte_identical(self, small_cfg_path, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert cli.main(["all", "--config", small_cfg_path, "--out", out1]) == 0
        assert cli.main(["all", "--config", small_cfg_path, "--out", out2]) == 0
        assert_same_artifacts(out1, out2)

    def test_all_logs_one_line_per_step(self, tmp_path, caplog):
        # each step logs its wall time, CPU time and peak RSS at info level;
        # the artifacts are the same bytes with and without the log
        cfg = cli.parse_config(SMALL_CONFIG, env={})
        quiet, logged = str(tmp_path / "quiet"), str(tmp_path / "logged")
        with caplog.at_level(logging.WARNING, logger="nesslab"):
            assert cli.run("all", cfg, quiet) == 0
        assert not [r for r in caplog.records if r.getMessage().startswith("step ")]
        with caplog.at_level(logging.INFO, logger="nesslab"):
            assert cli.run("all", cfg, logged) == 0
        steps = [r.getMessage() for r in caplog.records if r.getMessage().startswith("step ")]
        assert [m.split(":")[0] for m in steps] == [
            "step build", "step verify-lr", "step ness", "step sumrule", "step spectral"]
        for message in steps:
            assert re.fullmatch(r"step [a-z-]+: wall \d+\.\d{3} s, cpu \d+\.\d{3} s, "
                                r"peak rss \d+\.\d MB", message), message
        assert_same_artifacts(quiet, logged)

    def test_blas_thread_count_byte_identical(self, small_cfg_path, tmp_path):
        # one BLAS thread or two: every artifact of `all` must be the same bytes
        src = os.path.dirname(os.path.dirname(nl.__file__))
        outs = []
        for threads in ("1", "2"):
            out = str(tmp_path / f"threads{threads}")
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            proc = subprocess.run([sys.executable, "-m", "nesslab.cli", "all", "--config",
                                   small_cfg_path, "--out", out],
                                  env=env, capture_output=True, text=True, timeout=600)
            assert proc.returncode == 0, proc.stderr
            outs.append(out)
        assert len(os.listdir(outs[0])) == 10
        assert_same_artifacts(*outs)


FUZZ_MODELS = {
    "xx": {"kind": "xx"},
    "xxz": {"kind": "xxz", "lambda_aniso": "0.5"},
    "fermion": {"kind": "fermion", "t_hop": "1", "v": "0.5"},
}
FUZZ_KEYS = [(section, key) for section, key, _, _ in cli._SETTINGS] + [
    ("chain", "n_site"), ("extra", "key")]
FUZZ_VALUES = ["0", "-1", "nan", "inf", "1e308", "abc", "", "15", "40"]
# the [checks] tolerances and the [bias] values also draw on their own, so that
# valid configs reach the numerical checks: a tolerance of 0 or 1e-300 fails its
# check and a beta or lambda of 1e308 overflows the state's weights, both exit 4
FUZZ_CHECKED = ([("checks", key) for key in ("sum_rule_rel_err", "derivative_rel_err",
                                             "conservation_tol")],
                [("bias", "beta"), ("bias", "lambda")])
FUZZ_CHECKED_VALUES = ["0", "1e-300", "1e308"]
FUZZ_CASES = st.tuples(
    st.sampled_from(sorted(FUZZ_MODELS)),
    st.dictionaries(st.sampled_from(FUZZ_KEYS), st.sampled_from(FUZZ_VALUES), max_size=2),
    *(st.dictionaries(st.sampled_from(keys), st.sampled_from(FUZZ_CHECKED_VALUES),
                      max_size=len(keys)) for keys in FUZZ_CHECKED),
    st.sampled_from(sorted(cli._SUBCOMMANDS)))
ERROR_KINDS = {2: "config", 3: "precondition", 4: "numerical-check"}


def fuzz_exit(model, edits, tolerances, bias, subcommand) -> int:
    """Run one drawn input; it must exit 0, 2, 3 or 4, with error.json naming the kind."""
    sections = {"model": dict(FUZZ_MODELS[model]), "chain": {"n_sites": "8"},
                "geometry": {"M": "2", "L": "4"}, "window": {"T": "0.5"},
                "scan": {"x_values": "3", "t_values": "0, 0.1"}}
    for (section, key), value in [*edits.items(), *tolerances.items(), *bias.items()]:
        sections.setdefault(section, {})[key] = value
    text = "".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) + "\n"
                   for section, keys in sections.items())
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "fuzz.ini"), os.path.join(tmp, "out")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        code = cli.main([subcommand, "--config", path, "--out", out])
        error = os.path.join(out, "error.json")
        assert code in (0, 2, 3, 4), text
        if code == 0:
            assert not os.path.exists(error), text
        else:
            assert json.loads(open(error).read())["error"] == ERROR_KINDS[code], text
    return code


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=FUZZ_CASES)
def test_exit_code_contract_fuzz(case):
    fuzz_exit(*case)


@pytest.mark.parametrize("code", [0, 2, 3, 4])
def test_exit_code_fuzz_reaches_every_code(code):
    # the fuzz's own strategy draws an input of each exit code, exit 4 included
    find(FUZZ_CASES, lambda case: fuzz_exit(*case) == code,
         settings=settings(derandomize=True, max_examples=150, deadline=None,
                           phases=[Phase.generate]))
