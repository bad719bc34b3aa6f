"""End-to-end checks of the qfock command line: exit codes, frozen
values, config precedence, artifact determinism, and table layouts."""
import csv
import json
import math
import shutil
import subprocess

import numpy as np
import pytest

import oracles
import qbargmann
import qfock
from qcli import RunConfig, main, parse_complex, run_suite
from qcore import DomainError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# config handling

def test_runconfig_rejects_bad_values():
    for kwargs in ({"q": 0.0}, {"q": 1.0}, {"modes": -1}, {"depth": 0},
                   {"tol": 0.0}, {"format": "yaml"}):
        with pytest.raises(DomainError):
            RunConfig(**kwargs)


def test_runconfig_depth_derived_from_q():
    for q, depth in ((0.3, 33), (0.5, 57), (0.7, 110), (0.9, 372), (0.95, 400)):
        assert RunConfig(q=q).depth == depth
        assert RunConfig(q=q).context().quad_max_level == depth
        assert RunConfig(q=q).as_dict()["depth"] == depth
    assert RunConfig(q=0.3, depth=400).depth == 400


def test_depth_flag_and_env_override_derived_depth(tmp_path, monkeypatch, capsys):
    out = tmp_path / "report.json"
    assert run_cli(capsys, "table", "hermite-gram", "--q", "0.3", "--depth", "400",
                   "--format", "json", "--out", str(out))[0] == 0
    assert json.loads(out.read_text())["config"]["depth"] == 400
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({"q": 0.3, "depth": 250}))
    monkeypatch.setenv("QFOCK_CONFIG", str(cfgfile))
    assert run_cli(capsys, "table", "hermite-gram", "--format", "json", "--out", str(out))[0] == 0
    assert json.loads(out.read_text())["config"]["depth"] == 250
    assert run_cli(capsys, "table", "hermite-gram", "--depth", "90", "--format", "json", "--out", str(out))[0] == 0
    assert json.loads(out.read_text())["config"]["depth"] == 90
    code, _, err = run_cli(capsys, "eval", "qnum", "--depth", "0")
    assert code == 2 and "depth" in err


def test_parse_complex_forms():
    assert parse_complex("0.5+1.5i") == 0.5 + 1.5j
    assert parse_complex("-2i") == -2j
    assert parse_complex("3") == 3 + 0j
    assert parse_complex("-inf") == complex(-math.inf, 0.0)
    assert parse_complex("1+infi") == complex(1.0, math.inf)
    with pytest.raises(DomainError):
        parse_complex("spam")


@pytest.mark.parametrize("argv", [
    ("eval", "kernel", "--w", "inf"),
    ("eval", "kernel", "--w=-inf"),
    ("eval", "kernel", "--w=1+infi"),
    ("eval", "kernel", "--z=-infi"),
    ("table", "kernel-grid", "--w", "inf"),
    ("table", "kernel-grid", "--w", "nan"),
])
def test_infinite_complex_literals_parse_and_are_refused(capsys, argv):
    """Only the trailing imaginary unit is rewritten, so "inf" reaches the finite check."""
    code, out, err = run_cli(capsys, *argv)
    option = argv[2].split("=")[0]
    assert code == 2 and out == ""
    assert f"{option} must be finite" in err and "cannot parse" not in err


def test_env_config_applies(tmp_path, monkeypatch, capsys):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({"q": 0.6}))
    monkeypatch.setenv("QFOCK_CONFIG", str(cfgfile))
    code, out, _ = run_cli(capsys, "eval", "qnum", "--alpha", "3")
    assert code == 0
    assert out == "1.96\n"


def test_flags_override_env_config(tmp_path, monkeypatch, capsys):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({"q": 0.6}))
    monkeypatch.setenv("QFOCK_CONFIG", str(cfgfile))
    code, out, _ = run_cli(capsys, "eval", "qnum", "--alpha", "3", "--q", "0.5")
    assert code == 0
    assert out == "1.75\n"


def test_env_config_unknown_key_is_an_error(tmp_path, monkeypatch, capsys):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({"qq": 0.6}))
    monkeypatch.setenv("QFOCK_CONFIG", str(cfgfile))
    code, _, err = run_cli(capsys, "eval", "qnum")
    assert code == 2
    assert "unknown RunConfig keys" in err


def test_config_dict_is_every_field_at_its_default():
    # the defaults artifacts record, and the keys QFOCK_CONFIG may set
    assert RunConfig().as_dict() == {"q": 0.5, "modes": 16, "depth": 57, "tol": None, "format": "csv", "seed": 0}


def test_negative_seed_is_refused_with_exit_2(tmp_path, monkeypatch, capsys):
    with pytest.raises(DomainError, match="seed must be >= 0, got -1"):
        RunConfig(seed=-1)
    code, out, err = run_cli(capsys, "verify", "--seed", "-1")
    assert code == 2 and out == "" and "seed must be >= 0, got -1" in err
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({"seed": -3}))
    monkeypatch.setenv("QFOCK_CONFIG", str(cfgfile))
    code, out, err = run_cli(capsys, "verify")
    assert code == 2 and out == "" and "seed must be >= 0, got -3" in err


def test_env_config_must_be_an_object(tmp_path, monkeypatch, capsys):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text("[1, 2]")
    monkeypatch.setenv("QFOCK_CONFIG", str(cfgfile))
    code, _, err = run_cli(capsys, "eval", "qnum")
    assert code == 2
    assert "JSON object" in err


def test_out_of_range_q_flag_exits_2(capsys):
    code, _, err = run_cli(capsys, "eval", "qnum", "--q", "1.5")
    assert code == 2
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# eval

def test_eval_qnum_default_q(capsys):
    code, out, _ = run_cli(capsys, "eval", "qnum", "--alpha", "3")
    assert code == 0 and out == "1.75\n"


def test_eval_qbinom(capsys):
    code, out, _ = run_cli(capsys, "eval", "qbinom", "--n", "4", "--k", "2")
    assert code == 0 and out == "2.1875\n"


def test_eval_zq_complex_format(capsys):
    code, out, _ = run_cli(capsys, "eval", "zq", "--n", "2", "--at", "1,1")
    assert code == 0 and out == "0.5+1.5i\n"


def test_eval_kernel_at_origin(capsys):
    code, out, _ = run_cli(capsys, "eval", "kernel", "--z", "0.1+0.2i", "--w", "0")
    assert code == 0 and out == "1.0+0.0i\n"


def test_eval_hermite_value(capsys):
    code, out, _ = run_cli(capsys, "eval", "hermite", "--k", "2", "--at", "1")
    assert code == 0 and out == "1.875\n"


def test_eval_hermite_at_defaults_to_zero(capsys):
    # H_2(0) = -(q+1) q^2 = -0.375 at q = 0.5
    code, out, _ = run_cli(capsys, "eval", "hermite", "--k", "2")
    assert code == 0 and out == "-0.375\n"


def test_eval_hermite_refuses_degree_above_cap_before_building(capsys, monkeypatch):
    import qcli
    import qhermite

    def refuse(*args):
        raise AssertionError("the coefficient table was built")

    monkeypatch.setattr(qhermite, "_coeff_rows", refuse)
    code, out, err = run_cli(capsys, "eval", "hermite", "--k", str(qcli.EVAL_HERMITE_MAX_K + 1), "--q", "0.5")
    assert code == 2 and out == ""
    assert f"--k for hermite must be <= {qcli.EVAL_HERMITE_MAX_K}" in err


def test_eval_hermite_names_the_first_degree_outside_float64(capsys):
    # at q = 0.99 row 434 of the coefficient table overflows; no warning is printed
    code, out, err = run_cli(capsys, "eval", "hermite", "--k", "450", "--q", "0.99")
    assert code == 2 and out == ""
    assert err == "error: H_434 coefficients leave float64 range at q = 0.99\n"


@pytest.mark.parametrize("target,at,form", [
    ("hermite", "abc", "a real t"),
    ("hermite", "0,0", "a real t"),
    ("zq", "abc", "an 'x,y' pair"),
    ("zq", "1", "an 'x,y' pair"),
])
def test_eval_malformed_at_exits_2(capsys, target, at, form):
    code, out, err = run_cli(capsys, "eval", target, "--at", at)
    assert code == 2 and out == ""
    assert f"--at for {target} expects {form}" in err


@pytest.mark.parametrize("argv,reason", [
    (("qnum", "--alpha", "nan"), "--alpha must be finite"),
    (("Eq", "--x", "nan"), "--x must be finite"),
    (("gamma", "--t", "inf"), "--t must be finite"),
    (("hermite", "--at=-inf"), "--at must be finite"),
    (("zq", "--at", "1,nan"), "--at must be finite"),
    (("kernel", "--w", "nan"), "--w must be finite"),
    (("eq", "--x", "1e308"), "result outside float64 range"),
    (("gamma", "--t", "2000"), "result outside float64 range"),
    (("qfact", "--n", "5000"), "result outside float64 range"),
])
def test_eval_refuses_non_finite_inputs_and_results(capsys, argv, reason):
    code, out, err = run_cli(capsys, "eval", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and reason in err


def test_eval_gamma_json(capsys):
    code, out, _ = run_cli(capsys, "eval", "gamma", "--t", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"name": "gamma", "value": 1.0}


# ---------------------------------------------------------------------------
# verify

def test_verify_defaults_pass(capsys):
    code, out, err = run_cli(capsys, "verify")
    assert code == 0
    assert err == ""
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["name", "anchor", "residual", "tol", "pass"]
    names = [r[0] for r in rows[1:]]
    assert names == sorted(names)
    assert all(r[4] == "true" for r in rows[1:])


def test_verify_lists_parity_skip(capsys):
    _, out, _ = run_cli(capsys, "verify")
    rows = {r[0]: r for r in csv.reader(out.splitlines())}
    skip = rows["core-moment-parity-skip"]
    assert "parity skip" in skip[1]
    assert skip[4] == "true"


def test_verify_impossible_tolerance_fails(capsys):
    code, _, err = run_cli(capsys, "verify", "--tol", "1e-30")
    assert code == 1
    assert err.startswith("failed:")


def test_verify_artifacts_are_deterministic(tmp_path, capsys):
    for fmt in ("csv", "json"):
        a = tmp_path / f"a.{fmt}"
        b = tmp_path / f"b.{fmt}"
        assert run_cli(capsys, "verify", "--format", fmt, "--out", str(a))[0] == 0
        assert run_cli(capsys, "verify", "--format", fmt, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()


def test_verify_json_shape(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "verify", "--format", "json", "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["overall"] is True
    assert payload["config"]["q"] == 0.5
    assert len(payload["results"]) == 50
    for rec in payload["results"]:
        assert rec["residual"] < rec["tol"]


def test_verify_json_reports_effective_depth(tmp_path, capsys):
    out = tmp_path / "report.json"
    for q, depth in (("0.3", 33), ("0.9", 372)):
        assert run_cli(capsys, "verify", "--q", q, "--format", "json", "--out", str(out))[0] == 0
        assert json.loads(out.read_text())["config"]["depth"] == depth


@pytest.mark.parametrize("q", (0.3, 0.5, 0.9))
def test_derived_depth_keeps_suite_verdicts(q):
    short = run_suite(RunConfig(q=q, seed=3))
    full = run_suite(RunConfig(q=q, seed=3, depth=400))
    assert short.overall == full.overall
    for a, b in zip(short.entries, full.entries):
        assert (a.name, a.anchor, a.tol, a.passed) == (b.name, b.anchor, b.tol, b.passed)
        assert abs(a.residual - b.residual) <= 1e-14
        if a.name.startswith("core-"):
            assert a.residual == b.residual


@pytest.mark.parametrize("q", (0.3, 0.4))
def test_suite_table_has_no_subnormal_projector_entries(q):
    def subnormal(cfg):
        proj = qbargmann.build_kernel_table(cfg.context(), modes=min(10, cfg.modes)).proj
        return int(np.count_nonzero((proj != 0.0) & (np.abs(proj) < np.finfo(float).tiny)))

    assert subnormal(RunConfig(q=q, depth=400)) > 0
    assert subnormal(RunConfig(q=q)) == 0


def test_refused_suite_names_the_entry(capsys, monkeypatch):
    # a DomainError raised inside an entry exits 2 and names that entry
    def refuse(w, ctx, n):
        raise DomainError("kernel argument outside the domain disc")

    monkeypatch.setattr(qfock, "kernel_element", refuse)
    code, out, err = run_cli(capsys, "verify", "--q", "0.5", "--seed", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: suite entry fock-reproducing:")
    assert "outside the domain disc" in err


@pytest.mark.parametrize("q", (0.01, 0.05, 0.1, 0.15, 0.2))
def test_suite_draws_stay_in_the_domain_at_small_q(q):
    # fock-reproducing draws w from [-0.9, 0.9]^2, whose corners leave the
    # kernel disc |w| < 1/(1-q) below q = 0.2144; those draws are rescaled
    # into the disc, so no seed makes the suite refuse
    for seed in range(6):
        run_suite(RunConfig(q=q, seed=seed))


def _scalar_and_batched(seed, scalar, batched):
    one, two = np.random.default_rng(seed), np.random.default_rng(seed)
    a, b = scalar(one), batched(two)
    assert one.bit_generator.state == two.bit_generator.state
    return a, b


@pytest.mark.parametrize("seed", (0, 1, 7, 2**31 - 2))
def test_suite_batched_draws_equal_scalar_draws(seed):
    """Each batched draw of run_suite repeats the scalar draws it replaced, bit for bit,
    and leaves the generator where they left it."""
    # random_bivar(deg): one (re, im) pair per exponent pair, a-major
    deg = 10
    terms = (deg + 1) * (deg + 2) // 2
    a, b = _scalar_and_batched(
        seed,
        lambda g: [complex(g.uniform(-1, 1), g.uniform(-1, 1)) for _ in range(terms)],
        lambda g: g.uniform(-1, 1, size=(terms, 2)),
    )
    assert [complex(re, im) for re, im in b.tolist()] == a
    # fock-positivity: 100 elements of 9 coefficients
    a, b = _scalar_and_batched(
        seed,
        lambda g: [g.normal(size=9) + 1j * g.normal(size=9) for _ in range(100)],
        lambda g: g.normal(size=(100, 2, 9)),
    )
    assert np.array_equal(b[:, 0] + 1j * b[:, 1], a)
    # fock-adjoint: 20 pairs R, Q of 11 coefficients
    a, b = _scalar_and_batched(
        seed,
        lambda g: [[g.normal(size=11) + 1j * g.normal(size=11) for _ in range(2)] for _ in range(20)],
        lambda g: g.normal(size=(20, 4, 11)),
    )
    assert np.array_equal(np.stack([b[:, 0] + 1j * b[:, 1], b[:, 2] + 1j * b[:, 3]], axis=1), a)
    # fock-operator-polynomial-oracle: 4 points (x, y)
    a, b = _scalar_and_batched(
        seed,
        lambda g: [(g.uniform(-1, 1), g.uniform(-1, 1)) for _ in range(4)],
        lambda g: g.uniform(-1, 1, size=(4, 2)),
    )
    assert [tuple(p) for p in b.tolist()] == a


def test_suite_tol_override_hits_every_entry():
    result = run_suite(RunConfig(tol=1e-30))
    assert not result.overall
    lively = [e for e in result.entries if e.residual > 0.0]
    assert all(e.tol == 1e-30 for e in result.entries)
    assert len(lively) > 30


# ---------------------------------------------------------------------------
# grid

def test_grid_depth_zero_is_the_seed(capsys):
    code, out, _ = run_cli(capsys, "grid", "--seeds", "1,1", "--grid-depth", "0")
    assert code == 0
    rows = out.splitlines()
    assert rows == ["x,y", "1.0,1.0"]


def test_grid_depth_one_square(capsys):
    code, out, _ = run_cli(capsys, "grid", "--seeds", "1,1", "--grid-depth", "1")
    assert code == 0
    pts = {tuple(map(float, line.split(","))) for line in out.splitlines()[1:]}
    assert pts == {(1.0, 1.0), (0.5, 1.0), (1.0, 2.0), (0.5, 2.0)}


def test_grid_nine_seed_figure_count(capsys):
    seeds = ";".join(f"{x},{y}" for x in (9.8, 10.0, 10.2) for y in (1.2, 1.0, 0.8))
    code, out, _ = run_cli(capsys, "grid", "--seeds", seeds, "--grid-depth", "6",
                           "--q", "0.6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count_before_dedup"] == 9 * 49
    assert payload["count"] == len(payload["points"]) == 441


def test_grid_seeds_file(tmp_path, capsys):
    f = tmp_path / "seeds.txt"
    f.write_text("# corner seeds\n\n1,1\n2,0.5\n")
    code, out, _ = run_cli(capsys, "grid", "--seeds-file", str(f), "--grid-depth", "0")
    assert code == 0
    assert out.splitlines()[1:] == ["1.0,1.0", "2.0,0.5"]


def test_grid_seed_sources_are_exclusive(tmp_path, capsys):
    f = tmp_path / "seeds.txt"
    f.write_text("1,1\n")
    code, _, err = run_cli(capsys, "grid", "--seeds", "1,1", "--seeds-file", str(f))
    assert code == 2 and "not both" in err


def test_grid_requires_some_seed_source(capsys):
    code, _, err = run_cli(capsys, "grid")
    assert code == 2 and "needs" in err


def test_grid_malformed_seed(capsys):
    code, _, err = run_cli(capsys, "grid", "--seeds", "1")
    assert code == 2 and "expected 'x,y'" in err


@pytest.mark.parametrize("argv,option", [
    (("table", "kernel-grid", "--xmin", "nan", "--nx", "2", "--ny", "2"), "--xmin"),
    (("table", "kernel-grid", "--xmax", "inf"), "--xmax"),
    (("table", "kernel-grid", "--ymin=-inf"), "--ymin"),
    (("table", "kernel-grid", "--ymax", "nan"), "--ymax"),
    (("table", "kernel-grid", "--nx", "0"), "--nx"),
    (("table", "kernel-grid", "--nx", "-3"), "--nx"),
    (("table", "kernel-grid", "--ny", "0"), "--ny"),
    (("grid", "--seeds", "nan,1"), "--seeds"),
    (("grid", "--seeds", "1,inf"), "--seeds"),
    (("grid", "--seeds", "1,1;-inf,2"), "--seeds"),
])
def test_nonfinite_or_empty_grid_options_exit_2(capsys, argv, option):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {option} ")


def test_nonfinite_seed_in_file_exits_2(tmp_path, capsys):
    f = tmp_path / "seeds.txt"
    f.write_text("1,1\nnan,2\n")
    code, out, err = run_cli(capsys, "grid", "--seeds-file", str(f))
    assert code == 2 and out == ""
    assert err.startswith("error: --seeds-file ")


def test_one_point_kernel_grid_is_allowed(capsys):
    code, out, _ = run_cli(capsys, "table", "kernel-grid", "--nx", "1", "--ny", "1")
    assert code == 0
    assert len(out.splitlines()) == 2


# ---------------------------------------------------------------------------
# tables

def test_table_hermite_gram_is_nearly_diagonal(capsys):
    code, out, _ = run_cli(capsys, "table", "hermite-gram", "--kmax", "6")
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["label", "H0", "H1", "H2", "H3", "H4", "H5", "H6"]
    mat = [[float(c) for c in r[1:]] for r in rows[1:]]
    diag_max = max(mat[i][i] for i in range(7))
    off = max(abs(mat[i][j]) for i in range(7) for j in range(7) if i != j)
    assert off < 1e-8 * diag_max


def test_table_mixed_gram_json(capsys):
    code, out, _ = run_cli(capsys, "table", "mixed-gram", "--N", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["labels"]) == 10
    assert payload["min_eig"] > 0.0
    assert payload["config"]["q"] == 0.5


def test_table_bargmann_gram_near_identity(capsys):
    code, out, _ = run_cli(capsys, "table", "bargmann-gram", "--M", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["labels"] == [f"h{m}" for m in range(6)]
    assert payload["max_dev"] < 1e-7


def test_table_kernel_grid_respects_domain(capsys):
    code, out, _ = run_cli(capsys, "table", "kernel-grid", "--w", "1.8+0i",
                           "--nx", "7", "--ny", "7")
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["x", "y", "ReK", "ImK", "absK"]
    assert 0 < len(rows) - 1 < 49
    for r in rows[1:]:
        x, y = float(r[0]), float(r[1])
        assert math.hypot(x, y) * 1.8 < 2.0
        assert abs(float(r[4])) >= 0.0


def test_table_artifacts_are_deterministic(tmp_path, capsys):
    tables = (
        ("mixed-gram", "--N", "2"),
        ("hermite-gram", "--kmax", "7"),
        ("kernel-grid", "--w", "0.6-0.3i", "--nx", "9", "--ny", "7"),
    )
    for table in tables:
        for fmt in ("csv", "json"):
            a, b = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
            assert run_cli(capsys, "table", *table, "--format", fmt, "--out", str(a))[0] == 0
            assert run_cli(capsys, "table", *table, "--format", fmt, "--out", str(b))[0] == 0
            assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# installed entry point

def test_console_script_runs():
    exe = shutil.which("qfock")
    if exe is None:
        pytest.skip("package not installed with its scripts on PATH")
    proc = subprocess.run([exe, "eval", "qnum", "--alpha", "3"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == "1.75\n"


@pytest.mark.parametrize("q", (0.9, 0.95))
def test_core_entries_hold_near_base_one(q):
    """The q-exponential entries hold where the old 600-term series cancelled
    (it missed core-qexp-product at q = 0.9 seed 5, and 16 core entries at
    q = 0.95 over these seeds)."""
    for seed in range(6):
        misses = [e.name for e in run_suite(RunConfig(q=q, seed=seed)).failures() if e.name.startswith("core-")]
        assert misses == [], (seed, misses)


def test_eval_q_exponentials_near_base_one_match_mpmath(capsys):
    # the series read -8.8e17 and -1.0e64 here
    for target, x in (("eq", -98.01), ("Eq", -98.0)):
        code, out, _ = run_cli(capsys, "eval", target, "--q", "0.99", "--x", repr(x))
        want = oracles.q_exp_mp(x, 0.99, target[0])
        assert code == 0 and abs(float(out) - want) <= 1e-12 * abs(want)
    code, out, err = run_cli(capsys, "eval", "eq", "--x", "1e308")
    assert code == 2 and out == "" and "result outside float64 range" in err
