"""Exit codes, report shapes, determinism, and configuration plumbing."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import tripow
from tripow import bounds, cli
from tripow.cli import main
from tripow.numerics import RInterval
from tripow.triples import iter_pairs

from enclosure import assert_printed_ends_directed, encloses


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


# -- verify ----------------------------------------------------------------------


def test_verify_smallest_pair(capsys):
    code, rep, _ = run_json(capsys, "verify", "--m", "2", "--n", "1")
    assert code == 0
    assert rep["schema_version"] == 2
    assert rep["results"]["only_trivial"] is True
    assert rep["results"]["solutions"] == [
        {"x": 2, "y": 2, "z": 2, "exceptional": False}
    ]
    assert rep["results"]["engine"] == {
        "applicable": False,
        "note": "requires 4 | even member",
    }
    assert "note" in rep["results"]["profile"]


def test_verify_full_dossier(capsys):
    code, rep, _ = run_json(capsys, "verify", "--m", "13", "--n", "4")
    assert code == 0
    res = rep["results"]
    assert res["triple"] == {"a": 153, "b": 104, "c": 185}
    assert res["engine"] == {
        "applicable": False,
        "note": "requires the even member to be m",
    }
    assert res["profile"] == {"alpha": 2, "i": 1, "beta": 2, "j": 3, "e": 1}
    assert set(res["exclusions"]) == {
        "alpha_ge_2",
        "n_ge_4",
        "two_alpha_ne_beta_plus_1",
        "c_not_prime_power",
        "m_minus_n_ge_3",
    }
    assert "y_half_exponent_bound" in res


def test_verify_undecided_primality_keeps_the_dossier(capsys):
    # c = 4*10^24 + 49 is at least PSI_13 and passes all 13 Miller-Rabin
    # bases, so whether it is a prime power is undecided: that one
    # exclusion is null, and the profile, the other four and the Y bound stay
    code, rep, _ = run_json(capsys, "verify", "--m", "2000000000000", "--n", "7")
    assert code == 0
    res = rep["results"]
    assert res["triple"]["c"] == 4 * 10**24 + 49
    assert res["profile"] == {"alpha": 13, "i": 5**12, "beta": 3, "j": 1, "e": -1}
    assert res["exclusions"] == {
        "alpha_ge_2": True,
        "n_ge_4": True,
        "two_alpha_ne_beta_plus_1": True,
        "c_not_prime_power": None,
        "m_minus_n_ge_3": True,
    }
    assert set(res["y_half_exponent_bound"]) == {"lo", "hi"}


def test_verify_sieve_and_engine_share_rule(capsys):
    code, rep, _ = run_json(capsys, "verify", "--m", "12", "--n", "7")
    res = rep["results"]
    diff = [c for c in res["engine"]["constraints"] if c["rule"] == "diff-mod8-5-y-eq-z"]
    assert len(diff) == 1
    sieve = [json.dumps(c, sort_keys=True) for c in res["sieve"]]
    assert json.dumps(diff[0], sort_keys=True) in sieve


@pytest.mark.parametrize(
    "argv",
    [("--m", "4000000004", "--n", "9", "--cap", "10"), ("--m", "40000000000004", "--n", "17")],
)
def test_verify_quartic_case_needs_no_factoring(capsys, argv):
    # the quartic chain's modulus has norm c = m^2 + n^2 > 1e18 here
    code, rep, _ = run_json(capsys, "verify", *argv)
    assert code in (0, 1)
    assert rep["results"]["engine"]["case"] == "odd=1(8), even=4(8)"


def test_verify_rejects_bad_pair(capsys):
    code, _, err = run(capsys, "verify", "--m", "9", "--n", "3")
    assert code == 2 and "error:" in err


def test_verify_requires_both_members(capsys):
    code, _, err = run(capsys, "verify", "--m", "9")
    assert code == 2 and "requires --n" in err


def test_output_flag_belongs_to_scan_only(tmp_path, capsys):
    target = tmp_path / "x.csv"
    for argv in (
        ("verify", "--m", "13", "--n", "4", "--output", str(target)),
        ("laurent", "--a2", "1100", "--bprime", "10", "--output", str(target)),
    ):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "--output" in capsys.readouterr().err
    assert not target.exists()


def test_text_format_has_header_and_timing(capsys):
    code, out, _ = run(capsys, "verify", "--m", "2", "--n", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("tripow ") and ":: verify" in lines[0]
    assert lines[-1].startswith("elapsed:")


# -- scan ------------------------------------------------------------------------


def test_scan_small_range(capsys):
    code, rep, err = run_json(capsys, "scan", "--m-max", "8", "--cap", "12")
    assert code == 0
    res = rep["results"]
    assert res["pairs_scanned"] == len(list(iter_pairs(8)))
    assert res["non_trivial"] == [] and res["exceptional"] == []
    assert res["solutions_found"] == res["pairs_scanned"]
    assert "scanning pairs" in err and "scanned" in err


def test_scan_requires_limit(capsys):
    code, _, err = run(capsys, "scan")
    assert code == 2 and "m-max" in err


def test_scan_degenerate_limit_warns(capsys):
    code, rep, _ = run_json(capsys, "scan", "--m-max", "1")
    assert code == 0
    assert "warning" in rep["results"]


def test_scan_invalid_cap_rejected_even_without_pairs(capsys):
    for m_max in ("1", "5"):
        code, _, err = run(capsys, "scan", "--m-max", m_max, "--cap", "1")
        assert code == 2 and "cap must be >= 2" in err


def test_scan_json_invariant_under_worker_count(capsys):
    _, out1, _ = run(capsys, "scan", "--m-max", "12", "--cap", "10",
                     "--jobs", "1", "--format", "json")
    _, out2, _ = run(capsys, "scan", "--m-max", "12", "--cap", "10",
                     "--jobs", "2", "--format", "json")
    assert out1 == out2


def test_scan_csv_export(tmp_path, capsys):
    target = tmp_path / "solutions.csv"
    code, rep, _ = run_json(
        capsys, "scan", "--m-max", "6", "--cap", "10", "--output", str(target)
    )
    assert code == 0
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "m,n,a,b,c,x,y,z,trivial"
    assert len(lines) - 1 == rep["results"]["pairs_scanned"]
    assert lines[1] == "2,1,3,4,5,2,2,2,True"
    assert all(row.endswith("True") for row in lines[1:])


# -- threshold ---------------------------------------------------------------------


def test_threshold_default_certifies(capsys):
    code, rep, _ = run_json(capsys, "threshold", "--theorem", "1.3")
    assert code == 0
    res = rep["results"]
    assert res["certificate"]["verdict"] is True
    assert res["certificate"]["failing_point"] is None
    assert res["certificate"]["segments"] == 7
    log10 = res["crossover"]["log10_m"]
    assert 19000 < float(log10["lo"]) < float(log10["hi"]) < 22933
    assert rep["inputs"]["at"] == "1e22933"
    assert rep["inputs"]["precision_bits"] == 256


def test_threshold_below_crossover_fails(capsys):
    code, rep, _ = run_json(capsys, "threshold", "--at", "1e50000")
    assert code == 1
    assert rep["results"]["certificate"]["verdict"] is False
    assert rep["results"]["certificate"]["failing_point"] is not None


def test_threshold_rejects_bad_magnitude(capsys):
    code, _, err = run(capsys, "threshold", "--at", "abc")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize(
    "at, message",
    [
        ("1", "requires t = ln m > 1000"),
        ("0.5", "requires t = ln m > 1000"),
        ("1e-5", "requires t = ln m > 1000"),
        ("e5", "requires t = ln m > 1000"),
        ("1e", "invalid magnitude '1e': bad exponent"),
    ],
)
def test_threshold_out_of_domain_magnitude_is_named(capsys, at, message):
    # a point with t = ln m <= 1000 gets the RHS's domain, not an
    # interval primitive's complaint; a bad exponent names the magnitude
    code, out, err = run(capsys, "threshold", "--at", at, "--format", "json")
    assert (code, out, err) == (2, "", f"error: {message}\n")


THRESHOLD_PINS = Path(__file__).with_name("threshold_reports.json")


def test_threshold_reports_match_pins(capsys):
    """Reports and exit codes of a fixed threshold argv set, byte for byte.

    The pins in threshold_reports.json were made at commit 9bfd05e, before
    the crossover estimate moved to floats: each argv went through
    ``tripow.cli.main``, and its exit code and parsed JSON stdout were
    saved.  The set is the default runs of theorems 1.2 and 1.3, theorem
    1.2 at 64 and 512 bits, and the refuted point 1e50000.  The 18 pins
    after them were made the same way at commit a7f45ed, before the
    derivative grid was certified by bisection: the first round of the
    benchmark's ``Threshold(1)`` workload, both theorems at 128, 256 and
    384 bits, each at one point of the two certifying ``--at`` strata and
    one of the refuted stratum.  A change that is meant to alter these
    reports must re-pin them the same way and say why.  Every pin was
    re-pinned when ``lo`` and ``hi`` became rounded outward (schema
    version 2): each string that changed is the other directed rounding of
    the same end, and no other field changed.
    """
    check_pins(capsys, THRESHOLD_PINS, 23)


def test_threshold_certifies_the_grid_in_one_derivative_enclosure(monkeypatch, capsys):
    # above the crossover one enclosure over the whole derivative grid is
    # already positive; a point refuted at t0 never reaches the grid
    calls = []
    real = bounds._rhs_derivative

    def counted(t):
        calls.append(t)
        return real(t)

    monkeypatch.setattr(bounds, "_rhs_derivative", counted)
    counts = []
    for pin in json.loads(THRESHOLD_PINS.read_text())[:5]:
        calls.clear()
        code, rep, _ = run_json(capsys, *pin["argv"])
        assert code == pin["exit_code"]
        counts.append((rep["results"]["certificate"]["verdict"], len(calls)))
    assert counts == [(True, 1)] * 4 + [(False, 0)]


def check_pins(capsys, path: Path, count: int):
    pins = json.loads(path.read_text())
    assert len(pins) == count
    for pin in pins:
        check_pin(capsys, pin)


def check_pin(capsys, pin: dict):
    code, out, err = run(capsys, *pin["argv"])
    assert code == pin["exit_code"], pin["argv"]
    assert out == json.dumps(pin["report"], sort_keys=True, indent=2) + "\n", pin["argv"]
    return err


def test_threshold_pins_hold_cold_and_warm(capsys, threshold_caches):
    # crossover's bracket and the tail start are kept per (form, precision);
    # a report made from them must not differ from one that certified them
    pins = json.loads(THRESHOLD_PINS.read_text())
    cold = []
    for pin in pins:
        threshold_caches()
        cold.append(check_pin(capsys, pin))
    warm = [check_pin(capsys, pin) for pin in reversed(pins)]
    assert cold == warm[::-1] == [""] * len(pins)


COMMAND_PINS = Path(__file__).with_name("command_reports.json")


def test_laurent_verify_symbols_reports_match_pins(capsys):
    """Reports and exit codes of fixed laurent, verify and symbols argv, byte for byte.

    Made like threshold_reports.json, at commit 16d1bec, before the
    two-log options and the str and float interval constructors were
    removed.  The set: laurent at a2 in {1100, 1200} and b' in {10, 0.06}
    at 64, 128 and 256 bits; verify on two pairs of every parity-engine
    case, on both declined hypotheses and on a pair the engine does not
    cover, plus (1996, 1205) at cap 40 and 128 bits; and the two symbols.
    Re-pinned like threshold_reports.json for schema version 2.
    """
    check_pins(capsys, COMMAND_PINS, 28)


def test_pinned_reports_print_enclosing_ends(monkeypatch, capsys):
    # every lo/hi a report prints encloses its interval's exact ends, and
    # each is the nearest 24-digit decimal on its side
    printed = []
    real = cli._iv_json

    def recorded(v):
        out = real(v)
        printed.append((v, out["lo"], out["hi"]))
        return out

    monkeypatch.setattr(cli, "_iv_json", recorded)
    pins = json.loads(THRESHOLD_PINS.read_text()) + json.loads(COMMAND_PINS.read_text())
    for pin in pins:
        printed.clear()
        code, out, _ = run(capsys, *pin["argv"])
        assert code == pin["exit_code"]
        assert out.count('"lo"') == len(printed), pin["argv"]
        for v, lo, hi in printed:
            assert_printed_ends_directed(v, lo, hi, 24)


# -- symbols -----------------------------------------------------------------------


def test_symbols_jacobi(capsys):
    code, rep, _ = run_json(capsys, "symbols", "--jacobi", "3", "--mod", "7")
    assert code == 0
    assert rep["results"] == {"symbol": "jacobi", "value": -1}


def test_symbols_quartic(capsys):
    code, rep, _ = run_json(capsys, "symbols", "--quartic", "2", "--mod", "9,-4")
    assert code == 0
    assert rep["results"] == {"symbol": "quartic", "value": "-1"}


def test_symbols_quartic_rational_prime_modulus(capsys):
    # 5 = (2+i)(2-i) up to a unit, and (2/2+i)_4 (2/2-i)_4 = (-i)(i) = 1
    code, rep, _ = run_json(capsys, "symbols", "--quartic", "2", "--mod", "5,0")
    assert code == 0
    assert rep["results"] == {"symbol": "quartic", "value": "1"}


def test_symbols_argument_validation(capsys):
    code, _, err = run(capsys, "symbols", "--mod", "7")
    assert code == 2 and "exactly one" in err
    code, _, err = run(capsys, "symbols", "--jacobi", "3", "--quartic", "2", "--mod", "7")
    assert code == 2
    code, _, err = run(capsys, "symbols", "--quartic", "2", "--mod", "9")
    assert code == 2 and "Gaussian" in err


# -- laurent -----------------------------------------------------------------------


def test_laurent_worked_instance(capsys):
    code, rep, _ = run_json(capsys, "laurent", "--a2", "1100", "--bprime", "10")
    assert code == 0
    res = rep["results"]
    assert res["condition_holds"] is True
    assert res["instance"]["K"] == 22678 and res["instance"]["N"] == 136068
    assert res["instance"]["g"] == "46957/278540"
    assert res["rechecks"] == {
        "gL_term_below_closed_form": True,
        "ln_b_below_closed_form": True,
    }
    assert res["L"] == 6 and res["L_floored"] is False


# The worked instance, then one argv per benchmark stratum (L = 3, 6, 9).
# Nothing here depends on the ln_b superfactorial sum's enclosure.  The
# (lo, hi) strings are rounded outward, so a narrow enclosure of a short
# decimal such as -281207.2 prints as the 24-digit decimals either side.
LAURENT_PINNED = [
    (("1100", "10"),
     dict(K=22678, L=6, R=1466, S=95, N=136068, b1=655, b2=655, g="46957/278540"),
     ("-281207.200000000000000001", "-281207.199999999999999999"),
     ("-346250.842143310802106382", "-346250.842143310802106381")),
    (("1285", "0.175"),
     dict(K=13246, L=3, R=857, S=48, N=39738, b1=11, b2=11, g="13945/82272"),
     ("-82125.2000000000000000001", "-82125.1999999999999999999"),
     ("-126377.851078220764768507", "-126377.851078220764768506")),
    (("1185", "10"),
     dict(K=24430, L=6, R=1580, S=95, N=146580, b1=658, b2=658, g="2531/15010"),
     ("-302932.000000000000000001", "-302931.999999999999999999"),
     ("-373005.003331016332118718", "-373005.003331016332118717")),
    (("1085", "500"),
     dict(K=33552, L=9, R=2169, S=144, N=301968, b1=32762, b2=32762, g="245/1446"),
     ("-624067.200000000000000001", "-624067.199999999999999999"),
     ("-694954.999057594307692795", "-694954.999057594307692794")),
]


@pytest.mark.parametrize(
    "args, fields, log_bound, log_form", LAURENT_PINNED, ids=["worked", "L3", "L6", "L9"]
)
def test_laurent_pinned_report_fields(capsys, args, fields, log_bound, log_form):
    a2, bprime = args
    code, rep, _ = run_json(capsys, "laurent", "--a2", a2, "--bprime", bprime)
    res = rep["results"]
    assert code == 0
    assert {k: res["instance"][k] for k in fields} == fields
    assert res["condition_holds"] is True
    assert res["rechecks"] == {
        "gL_term_below_closed_form": True,
        "ln_b_below_closed_form": True,
    }
    assert res["log_bound"] == dict(zip(("lo", "hi"), log_bound))
    assert res["log_form_lower_bound"] == dict(zip(("lo", "hi"), log_form))


def test_laurent_sums_superfactorial_once_per_instance(monkeypatch, capsys):
    calls = {"ln_b": 0, "sum": 0}
    ln_b, ln_superfactorial = bounds.LaurentInstance.ln_b, bounds.ln_superfactorial

    def counted_ln_b(*args, **kwargs):
        calls["ln_b"] += 1
        return ln_b(*args, **kwargs)

    def counted_sum(*args, **kwargs):
        calls["sum"] += 1
        return ln_superfactorial(*args, **kwargs)

    monkeypatch.setattr(bounds.LaurentInstance, "ln_b", counted_ln_b)
    monkeypatch.setattr(bounds, "ln_superfactorial", counted_sum)
    code, _, _ = run_json(capsys, "laurent", "--a2", "1285", "--bprime", "0.175")
    assert code == 0
    assert calls == {"ln_b": 3, "sum": 1}


def test_laurent_builds_shared_corollary_values_once(monkeypatch, capsys):
    # rho = e^3.1 feeds a1 and the instance; a1, L and ln b' feed the lower
    # bound, the instance and the rechecks
    calls = {"rho": 0, "a1": 0, "L": 0, "ln_bprime": 0}
    a1_prop = bounds.TwoLogInputs.__dict__["a1"]
    a1, corollary_L, ln, exp = a1_prop.func, bounds.corollary_L, RInterval.ln, RInterval.exp
    bprime = Fraction(175, 1000)

    def counted_a1(*args):
        calls["a1"] += 1
        return a1(*args)

    def counted_L(*args):
        calls["L"] += 1
        return corollary_L(*args)

    def counted_ln(self):
        calls["ln_bprime"] += encloses(self, bprime)
        return ln(self)

    def counted_exp(self):
        calls["rho"] += encloses(self, bounds.RHO_LOG)
        return exp(self)

    monkeypatch.setattr(a1_prop, "func", counted_a1)
    monkeypatch.setattr(bounds, "corollary_L", counted_L)
    monkeypatch.setattr(RInterval, "ln", counted_ln)
    monkeypatch.setattr(RInterval, "exp", counted_exp)
    code, _, _ = run_json(capsys, "laurent", "--a2", "1285", "--bprime", "0.175")
    assert code == 0
    assert calls == {"rho": 1, "a1": 1, "L": 1, "ln_bprime": 1}


def test_laurent_requires_inputs(capsys):
    code, _, err = run(capsys, "laurent", "--a2", "1100")
    assert code == 2 and "bprime" in err


def test_laurent_at_huge_a2(capsys):
    # the ln of rho^(-mu K L) has an exponent past -2^63 at a2 = 1e30; at
    # 1e40, K = 1 + floor(kappa L a1 a2) is undecided at 128 bits, which asks
    # for precision (exit 2) rather than failing the check
    code, out, _ = run_json(capsys, "laurent", "--a2", "1e30", "--bprime", "10")
    assert code == 0 and out["results"]["condition_holds"] is True
    code, out, err = run(capsys, "laurent", "--a2", "1e40", "--bprime", "10")
    assert (code, out) == (2, "") and "raise precision" in err


def test_laurent_hypothesis_failure_is_exit_one(capsys):
    code, _, err = run(capsys, "laurent", "--a2", "1000", "--bprime", "10")
    assert code == 1 and "check failed" in err and "hypothesis fails" in err


@pytest.mark.parametrize(
    "config, argv",
    [
        (None, ("laurent", "--a2", "1100", "--bprime", "1/0")),
        (None, ("laurent", "--a2", "1/0", "--bprime", "10")),
        (None, ("threshold", "--at", "1/0e5")),
        ("bprime = 1/0\n", ("laurent", "--a2", "1100")),
    ],
    ids=["bprime", "a2", "at", "config-bprime"],
)
def test_zero_denominator_is_invalid_input(tmp_path, capsys, config, argv):
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        argv = ("--config", str(cfg), *argv)
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "zero denominator" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("threshold", "--theorem", "1.2", "--at", "7e60000"),
        ("laurent", "--a2", "1100", "--bprime", "10"),
    ],
)
def test_report_ignores_mpmath_global_precision(capsys, argv):
    code, rep, _ = run_json(capsys, *argv)
    with mpmath.workprec(12):
        code12, rep12, _ = run_json(capsys, *argv)
    assert (code12, rep12) == (code, rep)


# -- configuration -----------------------------------------------------------------


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# pair under study\n"
        "m = 13\n"
        "n = 4  # comment after value\n"
        "cap = 5\n"
        "format = json\n"
    )
    code, out, _ = run(capsys, "--config", str(cfg), "verify", "--cap", "40")
    rep = json.loads(out)
    assert code == 0
    assert rep["inputs"]["m"] == 13 and rep["inputs"]["n"] == 4
    assert rep["inputs"]["cap"] == 40  # flag beats file


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mm = 13\n")
    code, _, err = run(capsys, "--config", str(cfg), "verify", "--m", "2", "--n", "1")
    assert code == 2 and "unknown key" in err


def test_config_output_path_belongs_to_scan_only(tmp_path, capsys):
    target = tmp_path / "out.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"output_path = {target}\n")
    for argv in (
        ("verify", "--m", "13", "--n", "4"),
        ("threshold", "--theorem", "1.3"),
        ("laurent", "--a2", "1100", "--bprime", "10"),
    ):
        code, out, err = run(capsys, "--config", str(cfg), *argv, "--format", "json")
        assert code == 2 and out == ""
        assert "output_path applies only to scan" in err
        assert not target.exists()
    code, _, _ = run(capsys, "--config", str(cfg), "scan", "--m-max", "6", "--cap", "10")
    assert code == 0
    assert target.read_text().splitlines()[1] == "2,1,3,4,5,2,2,2,True"


def test_config_file_non_integer_value_names_line_and_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("cap = 10\nm_max = 6x\n")
    code, out, err = run(capsys, "--config", str(cfg), "scan")
    assert code == 2 and out == ""
    assert err == f"error: {cfg}:2: 'm_max' must be an integer, not '6x'\n"


def test_config_file_missing(capsys):
    code, _, err = run(capsys, "--config", "/nonexistent.cfg", "verify",
                       "--m", "2", "--n", "1")
    assert code == 2


def test_precision_env_var(monkeypatch, capsys):
    monkeypatch.setenv("TRIPOW_PRECISION_BITS", "96")
    code, rep, _ = run_json(capsys, "verify", "--m", "13", "--n", "4")
    assert code == 0 and rep["inputs"]["precision_bits"] == 96
    # explicit flag wins
    code, rep, _ = run_json(
        capsys, "verify", "--m", "13", "--n", "4", "--precision-bits", "128"
    )
    assert rep["inputs"]["precision_bits"] == 128


def test_precision_env_var_invalid(monkeypatch, capsys):
    monkeypatch.setenv("TRIPOW_PRECISION_BITS", "lots")
    code, _, err = run(capsys, "verify", "--m", "2", "--n", "1")
    assert code == 2 and "must be an integer" in err


def test_precision_floor(capsys):
    code, _, err = run(capsys, "verify", "--m", "2", "--n", "1",
                       "--precision-bits", "16")
    assert code == 2 and "at least 64" in err


# -- one process, many calls -------------------------------------------------------


def _call(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects bad flags by exiting
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_repeated_calls_repeat_their_first_output(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m = 13\nn = 4\ncap = 5\nformat = json\n")
    calls = [
        ("verify", "--m", "13", "--n", "4", "--format", "json"),
        ("threshold", "--theorem", "1.3", "--format", "json"),
        ("verify", "--m", "13", "--no-such-flag"),
        ("--config", str(cfg), "verify"),
    ]
    first = [_call(capsys, argv) for argv in calls]
    assert [code for code, _, _ in first] == [0, 0, 2, 0]
    assert json.loads(first[0][1])["inputs"]["cap"] == 30
    assert json.loads(first[3][1])["inputs"]["cap"] == 5
    # the config file's values stay with the call that named it, so the
    # verify call after it still reads the default cap
    for _ in range(2):
        assert [_call(capsys, argv) for argv in calls] == first


def _fresh_python(script: str) -> str:
    """stdout of script run in a new interpreter that imports tripow from
    this checkout; fails the test if the script fails."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(tripow.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_runs_without_sympy():
    script = (
        "import contextlib, io, sys\n"
        "import tripow.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [tripow.cli.main(argv) for argv in (\n"
        "        ['verify', '--m', '13', '--n', '4'],\n"
        "        ['symbols', '--quartic', '2', '--mod', '9,-4'],\n"
        "        ['symbols', '--quartic', '2', '--mod', '7,4'],\n"
        "    )]\n"
        "print(codes, 'sympy' in sys.modules)\n"
    )
    assert _fresh_python(script).split() == ["[0,", "0,", "0]", "False"]


def test_exact_commands_run_without_mpmath():
    # scan and symbols build no interval; threshold builds many, on
    # numerics' own core, which needs no mpmath either
    script = (
        "import contextlib, io, sys\n"
        "import tripow.cli\n"
        "def call(*argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()), \\\n"
        "            contextlib.redirect_stderr(io.StringIO()):\n"
        "        code = tripow.cli.main(list(argv))\n"
        "    print(code, 'mpmath' in sys.modules)\n"
        "print(0, 'mpmath' in sys.modules)\n"
        "call('scan', '--m-max', '40', '--cap', '40')\n"
        "call('symbols', '--quartic', '2', '--mod', '9,-4')\n"
        "call('threshold', '--theorem', '1.3')\n"
    )
    lines = _fresh_python(script).splitlines()
    assert lines == ["0 False", "0 False", "0 False", "0 False"]


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--m", "13", "--n", "4"),
        ("scan", "--m-max", "40", "--cap", "40"),
        ("threshold", "--theorem", "1.2", "--precision-bits", "128"),
        ("symbols", "--quartic", "2", "--mod", "9,-4"),
        ("laurent", "--a2", "1100", "--bprime", "10"),
    ],
    ids=lambda argv: argv[0],
)
def test_subcommand_leaves_mpmath_unloaded(argv):
    # each subcommand alone in a fresh interpreter, text and JSON
    script = (
        "import contextlib, io, sys\n"
        "import tripow.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), \\\n"
        "        contextlib.redirect_stderr(io.StringIO()):\n"
        f"    codes = [tripow.cli.main({list(argv)!r} + fmt) for fmt in ([], ['--format', 'json'])]\n"
        "print(codes, 'mpmath' in sys.modules)\n"
    )
    assert _fresh_python(script).split() == ["[0,", "0]", "False"]


@pytest.mark.parametrize(
    "expr, value",
    [
        ("RInterval(3)", 3.0),
        ("RInterval.pi(128)", math.pi),
        ("RInterval.e_const(128)", math.e),
        ("ln_superfactorial(100, 128)", sum(math.lgamma(k + 1) for k in range(1, 101))),
    ],
)
def test_interval_entry_points_load_mpmath(expr, value):
    # the four ways to make an interval from nothing, each first in its own
    # interpreter: none of them loads mpmath, and each gives its value
    script = (
        "import sys\n"
        "from tripow.numerics import RInterval, ln_superfactorial\n"
        "before = 'mpmath' in sys.modules\n"
        f"iv = {expr}\n"
        "lo, hi = iv.exact_ends()\n"
        "print(before, 'mpmath' in sys.modules, float(lo), float(hi))\n"
    )
    before, after, lo, hi = _fresh_python(script).split()
    assert (before, after) == ("False", "False")
    assert abs(float(lo) - value) <= 1e-12 * value and abs(float(hi) - value) <= 1e-12 * value