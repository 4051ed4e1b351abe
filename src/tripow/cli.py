"""Command-line front end.

Five subcommands: verify (per-pair dossier), scan (range sweep),
threshold (final-inequality certification), symbols (jacobi / quartic
residue symbols), laurent (two-logarithm condition checker and lower
bound).  Reports render as text or JSON; JSON is schema-stable,
sorted, and carries no timing, so identical inputs give identical
bytes no matter how many workers ran.

Exit codes: 0 all checks passed, 1 a certification or constraint
check failed, 2 invalid input or configuration.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from .bounds import (
    HypothesisError,
    THEOREM_FORMS,
    THRESHOLD_PRECISION,
    TwoLogInputs,
    certify_threshold,
    crossover,
    laurent_check,
    lemma_parameter_rechecks,
    two_log_instance,
    two_log_lower_bound,
    y_upper_bound,
)
from .numerics import DEFAULT_PRECISION, GaussianInt, RInterval, ln_constant
from .residues import jacobi, parity_engine, quadratic_sieve, quartic_symbol
from .search import find_solutions, scan_range
from .triples import PrimPair, exclusion_conditions, triple_of, two_adic_profile

SCHEMA_VERSION = 2
ENV_PRECISION = "TRIPOW_PRECISION_BITS"

THEOREM_DEFAULT_EXP10 = {"1.2": 109948, "1.3": 22933}


@dataclass
class RunConfig:
    command: str
    m: int | None = None
    n: int | None = None
    cap: int = 30
    m_max: int | None = None
    precision_bits: int = DEFAULT_PRECISION
    theorem: str | None = None
    format: str = "text"
    jobs: int = 1
    output_path: str | None = None
    at: str | None = None
    quartic: int | None = None
    jacobi: int | None = None
    mod: str | None = None
    a2: str | None = None
    bprime: str | None = None

    def __post_init__(self):
        if self.precision_bits < 64:
            raise ValueError("precision_bits must be at least 64")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        if self.format not in ("text", "json"):
            raise ValueError("format must be text or json")
        if self.theorem is not None and self.theorem not in THEOREM_FORMS:
            raise ValueError("theorem must be 1.2 or 1.3")
        if self.output_path is not None and self.command != "scan":
            raise ValueError("output_path applies only to scan")


def _iv_json(v: RInterval) -> dict:
    lo, hi = v.decimal_ends(24)
    return {"lo": lo, "hi": hi}


def _constraints_json(constraints) -> list:
    return [
        {"kind": c.kind, "rule": c.source, "note": c.note} for c in constraints
    ]


def _new_report(config: RunConfig, inputs: dict) -> dict:
    return {
        "command": config.command,
        "inputs": inputs,
        "results": {},
        "version": __version__,
        "schema_version": SCHEMA_VERSION,
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify(config: RunConfig) -> tuple[dict, int]:
    for key in ("m", "n"):
        if getattr(config, key) is None:
            raise ValueError(f"verify requires --{key}")
    p = PrimPair(config.m, config.n)
    tr = triple_of(p)
    report = _new_report(
        config,
        {"m": p.m, "n": p.n, "cap": config.cap, "precision_bits": config.precision_bits},
    )
    res = report["results"]
    res["triple"] = {"a": tr.a, "b": tr.b, "c": tr.c}

    sols = find_solutions(p, config.cap)
    res["solutions"] = [
        {"x": s.sol.x, "y": s.sol.y, "z": s.sol.z, "exceptional": s.exceptional}
        for s in sols
    ]
    nontrivial = [s for s in sols if (s.sol.x, s.sol.y, s.sol.z) != (2, 2, 2)]
    res["only_trivial"] = not nontrivial

    res["sieve"] = _constraints_json(
        sorted(quadratic_sieve(p), key=lambda c: (c.kind, c.source))
    )

    verdict = parity_engine(p)
    if verdict.note:
        res["engine"] = {"applicable": False, "note": verdict.note}
    else:
        res["engine"] = {
            "applicable": verdict.applicable,
            "case": verdict.case,
            "all_even": verdict.all_even,
            "assumed_y_gt_1": verdict.assumed_y_gt_1,
            "constraints": _constraints_json(verdict.constraints),
        }

    try:
        prof = two_adic_profile(p)
    except ValueError as exc:  # odd member 1
        res["profile"] = {"note": str(exc)}
    else:
        res["profile"] = {
            "alpha": prof.alpha,
            "i": prof.i,
            "beta": prof.beta,
            "j": prof.j,
            "e": prof.e,
        }
        res["exclusions"] = exclusion_conditions(p)
        res["y_half_exponent_bound"] = _iv_json(
            y_upper_bound(p, config.precision_bits)
        )

    return report, (0 if res["only_trivial"] else 1)


def cmd_scan(config: RunConfig) -> tuple[dict, int]:
    if config.m_max is None:
        raise ValueError("scan requires --m-max")
    print(
        f"scanning pairs with m <= {config.m_max}, cap {config.cap}, "
        f"up to {config.jobs} worker(s)",
        file=sys.stderr,
    )
    summary = scan_range(config.m_max, config.cap, jobs=config.jobs)
    print(f"scanned {summary['pairs_scanned']} pairs", file=sys.stderr)
    report = _new_report(
        config, {"m_max": config.m_max, "cap": config.cap}
    )
    res = report["results"]
    res["pairs_scanned"] = summary["pairs_scanned"]
    res["solutions_found"] = len(summary["solutions"])
    res["non_trivial"] = summary["non_trivial"]
    res["exceptional"] = summary["exceptional"]
    if "warning" in summary:
        res["warning"] = summary["warning"]

    if config.output_path:
        with open(config.output_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["m", "n", "a", "b", "c", "x", "y", "z", "trivial"])
            for s in summary["solutions"]:
                t = triple_of(PrimPair(s["m"], s["n"]))
                trivial = (s["x"], s["y"], s["z"]) == (2, 2, 2)
                writer.writerow(
                    [s["m"], s["n"], t.a, t.b, t.c, s["x"], s["y"], s["z"], trivial]
                )
        print(f"wrote {config.output_path}", file=sys.stderr)

    return report, (0 if not res["non_trivial"] else 1)


def _parse_fraction(text: str) -> Fraction:
    """An exact rational such as '1100', '0.06' or '3/2'; a zero
    denominator is invalid input, not a failed certificate."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _parse_magnitude(s: str, ln10: RInterval) -> RInterval:
    """ln of a positive decimal like '1e109948' or '250000', as an interval
    at the precision of ln10, the interval for ln 10."""
    text = s.strip().lower()
    if "e" in text:
        mant_s, _, exp_s = text.partition("e")
        mant = _parse_fraction(mant_s) if mant_s else Fraction(1)
        try:
            exp10 = int(exp_s)
        except ValueError:
            raise ValueError(f"invalid magnitude {s!r}: bad exponent") from None
    else:
        mant, exp10 = _parse_fraction(text), 0
    if mant <= 0:
        raise ValueError("magnitude must be positive")
    out = exp10 * ln10
    if mant != 1:
        out = out + RInterval(mant, precision=ln10.precision).ln()
    return out


def cmd_threshold(config: RunConfig) -> tuple[dict, int]:
    theorem = config.theorem or "1.2"
    form = THEOREM_FORMS[theorem]
    prec = config.precision_bits
    at = config.at or f"1e{THEOREM_DEFAULT_EXP10[theorem]}"
    ln10 = ln_constant(10, prec)
    t0 = _parse_magnitude(at, ln10)
    report = _new_report(
        config,
        {
            "theorem": theorem,
            "form": f"{form.numerator}/{form.denominator}",
            "at": at,
            "precision_bits": prec,
        },
    )
    res = report["results"]
    cert = certify_threshold(form, t0)
    res["certificate"] = {
        "verdict": cert.verdict,
        "t0": _iv_json(cert.t0),
        "segments": cert.segments,
        "tail_from": cert.tail_from,
        "failing_point": cert.failing_point,
    }
    bracket = crossover(form, precision=prec)
    res["crossover"] = {
        "t": _iv_json(bracket),
        "log10_m": _iv_json(bracket / ln10),
    }
    return report, (0 if cert.verdict else 1)


def _parse_gaussian(s: str) -> GaussianInt:
    parts = s.split(",")
    if len(parts) != 2:
        raise ValueError("expected a Gaussian modulus like 9,-4")
    return GaussianInt(int(parts[0]), int(parts[1]))


def cmd_symbols(config: RunConfig) -> tuple[dict, int]:
    if config.mod is None:
        raise ValueError("symbols requires --mod")
    if (config.quartic is None) == (config.jacobi is None):
        raise ValueError("symbols requires exactly one of --quartic or --jacobi")
    report = _new_report(config, {"mod": config.mod})
    res = report["results"]
    if config.quartic is not None:
        g = _parse_gaussian(config.mod)
        value = quartic_symbol(config.quartic, g)
        report["inputs"]["quartic"] = config.quartic
        res["symbol"] = "quartic"
        res["value"] = str(value)
    else:
        value = jacobi(config.jacobi, int(config.mod))
        report["inputs"]["jacobi"] = config.jacobi
        res["symbol"] = "jacobi"
        res["value"] = value
    return report, 0


def cmd_laurent(config: RunConfig) -> tuple[dict, int]:
    if config.a2 is None or config.bprime is None:
        raise ValueError("laurent requires --a2 and --bprime")
    prec = config.precision_bits
    a2 = RInterval(_parse_fraction(config.a2), precision=prec)
    bprime = RInterval(_parse_fraction(config.bprime), precision=prec)
    report = _new_report(
        config,
        {"a2": config.a2, "bprime": config.bprime, "precision_bits": prec},
    )
    res = report["results"]
    inputs = TwoLogInputs(a2, bprime)
    bound = two_log_lower_bound(inputs)
    res["L"] = bound.L
    res["L_floored"] = bound.L_floored
    res["log_form_lower_bound"] = _iv_json(bound.log_lambda_lower)
    inst = two_log_instance(inputs)
    ok, margin, lam = laurent_check(inst)
    res["instance"] = {
        "K": inst.K,
        "L": inst.L,
        "R1": inst.R1,
        "R2": inst.R2,
        "S1": inst.S1,
        "S2": inst.S2,
        "R": inst.R,
        "S": inst.S,
        "N": inst.N,
        "b1": inst.b1,
        "b2": inst.b2,
        "g": str(inst.g),
        "ln_b": _iv_json(inst.ln_b()),
    }
    res["condition_holds"] = ok
    res["margin"] = _iv_json(margin)
    res["log_bound"] = _iv_json(lam.ln())
    rechecks = lemma_parameter_rechecks(inst, inputs.ln_bprime)
    res["rechecks"] = rechecks
    passed = ok and all(rechecks.values())
    return report, (0 if passed else 1)


# ---------------------------------------------------------------------------
# rendering


def _render_text(report: dict, elapsed: float) -> str:
    lines = [f"tripow {report['version']} :: {report['command']}"]
    inputs = " ".join(f"{k}={v}" for k, v in sorted(report["inputs"].items()))
    lines.append(f"inputs: {inputs}")

    def walk(obj, indent):
        pad = "  " * indent
        if isinstance(obj, dict):
            for k in sorted(obj):
                v = obj[k]
                if isinstance(v, (dict, list)) and v:
                    lines.append(f"{pad}{k}:")
                    walk(v, indent + 1)
                else:
                    lines.append(f"{pad}{k}: {v}")
        elif isinstance(obj, list):
            for item in obj:
                if isinstance(item, (dict, list)):
                    walk(item, indent)
                    lines.append(pad + "-")
                else:
                    lines.append(f"{pad}{item}")

    walk(report["results"], 1)
    lines.append(f"elapsed: {elapsed:.3f}s")
    return "\n".join(lines)


def _emit(report: dict, config: RunConfig, elapsed: float) -> None:
    if config.format == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(_render_text(report, elapsed))


# ---------------------------------------------------------------------------
# configuration plumbing


_INT_KEYS = {"m", "n", "cap", "m_max", "precision_bits", "jobs", "quartic", "jacobi"}
_STR_KEYS = {"theorem", "format", "output_path", "at", "mod", "a2", "bprime"}


def _read_config_file(path: str) -> dict:
    values: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            val = val.strip()
            if key in _INT_KEYS:
                try:
                    values[key] = int(val)
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: {key!r} must be an integer, not {val!r}"
                    ) from None
            elif key in _STR_KEYS:
                values[key] = val
            else:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
    return values


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="tripow",
        description="verification toolkit for x,y,z in a^x + b^y = c^z over "
        "primitive Pythagorean triples",
    )
    parser.add_argument("--config", help="flat key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--precision-bits", type=int, dest="precision_bits")
        sp.add_argument("--format", choices=("text", "json"))

    sp = sub.add_parser("verify", help="full dossier for one pair")
    sp.add_argument("--m", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--cap", type=int)
    common(sp)

    sp = sub.add_parser("scan", help="sweep all pairs with m <= m-max")
    sp.add_argument("--m-max", type=int, dest="m_max")
    sp.add_argument("--cap", type=int)
    sp.add_argument("--jobs", type=int)
    sp.add_argument("--output", dest="output_path", help="CSV of every solution found")
    common(sp)

    sp = sub.add_parser("threshold", help="certify the final inequality")
    sp.add_argument("--theorem", choices=tuple(THEOREM_FORMS))
    sp.add_argument("--at", help="certify at this magnitude of m, e.g. 1e109948")
    common(sp)

    sp = sub.add_parser("symbols", help="jacobi / quartic residue symbols")
    sp.add_argument("--quartic", type=int)
    sp.add_argument("--jacobi", type=int)
    sp.add_argument("--mod", help="integer, or Gaussian like 9,-4")
    common(sp)

    sp = sub.add_parser("laurent", help="two-logarithm bound and condition check")
    sp.add_argument("--a2")
    sp.add_argument("--bprime")
    common(sp)

    return parser


_COMMANDS = {
    "verify": cmd_verify,
    "scan": cmd_scan,
    "threshold": cmd_threshold,
    "symbols": cmd_symbols,
    "laurent": cmd_laurent,
}


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    merged: dict = {}
    if args.config:
        merged.update(_read_config_file(args.config))
    # explicit flags win over config-file values
    for key, val in vars(args).items():
        if key == "config":
            continue
        if val is not None:
            merged[key] = val
    merged["command"] = args.command

    if "precision_bits" not in merged:
        env = os.environ.get(ENV_PRECISION)
        if env is not None:
            try:
                merged["precision_bits"] = int(env)
            except ValueError:
                raise ValueError(f"{ENV_PRECISION} must be an integer") from None
        elif args.command == "threshold":
            merged["precision_bits"] = THRESHOLD_PRECISION

    fields = RunConfig.__dataclass_fields__
    return RunConfig(**{k: v for k, v in merged.items() if k in fields})


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    start = time.monotonic()
    try:
        report, code = _COMMANDS[config.command](config)
    except HypothesisError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(report, config, time.monotonic() - start)
    return code


if __name__ == "__main__":
    sys.exit(main())
