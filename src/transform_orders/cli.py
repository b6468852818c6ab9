"""Command-line interface.

Subcommands: check-star, check-convex, find-counterexample, sign-map,
failure-rate, simulate.  Verdict commands exit 0 (HOLDS), 1 (FAILS) or
2 (INCONCLUSIVE); runtime errors exit 3 and malformed configuration exits
64.  Reports are written as JSON (or CSV for sign maps) and are
byte-identical for identical configurations, so wall-clock timing is
printed to stderr and reported as null in the artifact.

The environment variable TOL_OVERRIDE scales the sign floor globally; a
JSON config file mirroring the flags can be passed via --config, with
explicit flags taking precedence.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, fields

from .expsum import ScanOptions
from .oracle import MIN_SAMPLES, mc_survival
from .orders import (
    OrderOptions,
    OrderVerdict,
    SignMap,
    Status,
    convex_check,
    convex_check_at,
    sign_map,
    star_check,
    violation_search,
)
from .systems import MAX_COMPONENTS, HazardVector, failure_rate

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_INCONCLUSIVE = 2
EXIT_ERROR = 3
EXIT_USAGE = 64

_COMMANDS = (
    "check-star",
    "check-convex",
    "find-counterexample",
    "sign-map",
    "failure-rate",
    "simulate",
)


class UsageError(Exception):
    pass


def _flag(name: str) -> str:
    return "--lambda" if name == "lam" else f"--{name.replace('_', '-')}"


@dataclass
class RunConfig:
    command: str
    lam: list[float] | None = None
    theta: list[float] | None = None
    a: float | None = None
    b: float | None = None
    a_min: float | None = None
    a_max: float | None = None
    x: float | None = None
    x_max: float | None = None
    resolution: int = 21
    sign_floor: float = 1e-18
    seed: int = 0
    samples: int = 1_000_000
    allow_numerical_holds: bool = False
    format: str | None = None  # per-command default: csv for sign-map, else json
    out: str | None = None

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise UsageError(f"unknown command {self.command!r}")
        if self.format not in (None, "json", "csv"):
            raise UsageError(f"format must be json or csv, got {self.format!r}")
        if self.format == "csv" and self.command != "sign-map":
            raise UsageError("csv output is only defined for sign-map")
        if self.out is not None and not isinstance(self.out, str):
            raise UsageError(f"--out must be a path, got {self.out!r}")
        for name in ("lam", "theta", "a", "b", "a_min", "a_max", "x", "x_max", "sign_floor"):
            value = getattr(self, name)
            values = value if isinstance(value, list) else [value]
            if any(v is not None and not (type(v) in (int, float) and math.isfinite(v))
                   for v in values):
                raise UsageError(f"{_flag(name)} must be a finite number, got {value!r}")
        for name in ("lam", "theta"):
            rates = getattr(self, name)
            if rates is not None and (not rates or any(r <= 0 for r in rates)):
                raise UsageError(f"{_flag(name)} needs a nonempty list of positive reals")
            if rates is not None and len(rates) > MAX_COMPONENTS:
                raise UsageError(f"{_flag(name)} has {len(rates)} rates; "
                                 f"at most {MAX_COMPONENTS} are supported")
        if self.sign_floor is None or self.sign_floor <= 0:
            raise UsageError("--sign-floor must be positive")
        for name in ("a", "a_min", "a_max", "x", "x_max"):
            if getattr(self, name) is not None and getattr(self, name) <= 0:
                raise UsageError(f"{_flag(name)} must be positive")
        if self.b is not None and self.b < 0:
            raise UsageError("--b must be nonnegative")
        if None not in (self.lam, self.theta) and len(self.lam) != len(self.theta):
            raise UsageError("--lambda and --theta need the same number of rates")
        for name, kind in (("resolution", int), ("seed", int), ("samples", int),
                           ("allow_numerical_holds", bool)):
            if type(getattr(self, name)) is not kind:
                raise UsageError(f"{_flag(name)} must be {kind.__name__}, "
                                 f"got {getattr(self, name)!r}")
        for name, least in (("resolution", 2), ("seed", 0), ("samples", MIN_SAMPLES)):
            if getattr(self, name) < least:
                raise UsageError(f"{_flag(name)} must be at least {least}")


def _parse_rates(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"bad rate list {text!r}: {exc}") from None


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2, which we reserve
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="transform-orders", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    common = _Parser(add_help=False)
    common.add_argument("--lambda", dest="lam", type=_parse_rates, default=None,
                        help="comma-separated component rates of the base system")
    common.add_argument("--theta", dest="theta", type=_parse_rates, default=None,
                        help="comma-separated component rates of the compared system")
    common.add_argument("--sign-floor", dest="sign_floor", type=float, default=None)
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--format", choices=("json", "csv"), default=None)
    common.add_argument("--out", default=None)
    common.add_argument("--config", default=None,
                        help="JSON file with RunConfig fields; flags override it")

    p = sub.add_parser("check-star", parents=[common])
    p.add_argument("--allow-numerical-holds", action="store_true", default=None,
                   dest="allow_numerical_holds")
    p = sub.add_parser("check-convex", parents=[common])
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--allow-numerical-holds", action="store_true", default=None,
                   dest="allow_numerical_holds")
    sub.add_parser("find-counterexample", parents=[common])
    p = sub.add_parser("sign-map", parents=[common])
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--a-min", dest="a_min", type=float, default=None)
    p.add_argument("--a-max", dest="a_max", type=float, default=None)
    p.add_argument("--x-max", dest="x_max", type=float, default=None)
    p.add_argument("--resolution", type=int, default=None)
    p = sub.add_parser("failure-rate", parents=[common])
    p.add_argument("--x", type=float, default=None)
    p = sub.add_parser("simulate", parents=[common])
    p.add_argument("--samples", type=int, default=None)
    return parser


def config_from_args(argv: list[str]) -> RunConfig:
    args = build_parser().parse_args(argv)
    if args.command is None:
        raise UsageError(f"a command is required: {', '.join(_COMMANDS)}")
    merged: dict = {"command": args.command}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {config_path!r}: {exc}") from None
        if not isinstance(loaded, dict):
            raise UsageError("config file must hold a JSON object")
        known = {f.name for f in fields(RunConfig)}
        unknown = set(loaded) - known
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        merged.update(loaded)
    for f in fields(RunConfig):
        if f.name == "command":
            continue
        value = getattr(args, f.name, None)
        if value is not None:
            merged[f.name] = value
    try:
        return RunConfig(**merged)
    except (TypeError, OverflowError) as exc:  # OverflowError: an int too large for a float
        raise UsageError(str(exc)) from None


def _order_options(config: RunConfig) -> OrderOptions:
    text = os.environ.get("TOL_OVERRIDE", "1")
    try:
        floor = config.sign_floor * float(text)
    except ValueError:
        floor = math.nan
    if not (0.0 < floor < math.inf):
        raise UsageError(f"TOL_OVERRIDE={text!r}: the sign floor must stay positive and finite")
    return OrderOptions(
        scan=ScanOptions(sign_floor=floor),
        allow_numerical_holds=config.allow_numerical_holds,
    )


def _require(config: RunConfig, *names: str) -> None:
    missing = [n for n in names if getattr(config, n) is None]
    if missing:
        flags = ", ".join(_flag(n) for n in missing)
        raise UsageError(f"{config.command} requires {flags}")


def _pattern_payload(pattern) -> list[dict]:
    return [
        {"sign": r.sign, "x": r.x, "value": r.value, "certain": r.certain}
        for r in pattern.regions
    ]


def _verdict_payload(verdict: OrderVerdict) -> dict:
    payload = {
        "verdict": verdict.status.value,
        "certificate": verdict.certificate,
        "witness": None,
        "detail": verdict.detail,
        "timing": None,
    }
    if verdict.witness is not None:
        payload["witness"] = {
            "a": verdict.witness.a,
            "b": verdict.witness.b,
            "pattern": _pattern_payload(verdict.witness.pattern),
        }
    return payload


def _verdict_exit(status: Status) -> int:
    return {
        Status.HOLDS: EXIT_HOLDS,
        Status.FAILS: EXIT_FAILS,
        Status.INCONCLUSIVE: EXIT_INCONCLUSIVE,
    }[status]


def _sign_map_csv(smap: SignMap) -> str:
    lines = ["x,a,sign"]
    for a, row in zip(smap.a_values, smap.signs):
        for x, s in zip(smap.x_values, row):
            lines.append(f"{x!r},{a!r},{s}")
    return "\n".join(lines) + "\n"


def run(config: RunConfig) -> tuple[int, str]:
    """Execute a validated configuration; returns (exit code, report text)."""
    opts = _order_options(config)
    payload: dict
    code: int

    if config.command == "check-star":
        _require(config, "lam", "theta")
        lam, theta = HazardVector(tuple(config.lam)), HazardVector(tuple(config.theta))
        verdict = star_check(lam, theta, opts)
        payload = _verdict_payload(verdict)
        code = _verdict_exit(verdict.status)

    elif config.command == "check-convex":
        _require(config, "lam", "theta")
        lam, theta = HazardVector(tuple(config.lam)), HazardVector(tuple(config.theta))
        if config.a is not None or config.b is not None:
            _require(config, "a", "b")
            verdict = convex_check_at(lam, theta, config.a, config.b, opts)
        else:
            verdict = convex_check(lam, theta, opts)
        payload = _verdict_payload(verdict)
        if verdict.witness is None and verdict.evidence:
            payload["pattern"] = _pattern_payload(verdict.evidence[0][1])
        code = _verdict_exit(verdict.status)

    elif config.command == "find-counterexample":
        _require(config, "lam", "theta")
        lam, theta = HazardVector(tuple(config.lam)), HazardVector(tuple(config.theta))
        report = violation_search(lam, theta, opts)
        payload = {
            "verdict": Status.FAILS.value,
            "certificate": None,
            "witness": {
                "a": report.a,
                "b": report.b,
                "pattern": _pattern_payload(report.pattern),
            },
            "strip": list(report.strip),
            "b0_used": report.b0_used,
            "x0_seed": report.x0_seed,
            "concavity_window": list(report.concavity_window()),
            "timing": None,
        }
        code = EXIT_FAILS

    elif config.command == "sign-map":
        _require(config, "lam", "theta", "b")
        lam, theta = HazardVector(tuple(config.lam)), HazardVector(tuple(config.theta))
        t1 = theta.rates[0]
        a_min = config.a_min if config.a_min is not None else t1 / (2 * lam.rates[-1])
        a_max = config.a_max if config.a_max is not None else 1.0
        x_max = config.x_max if config.x_max is not None else 20.0 / t1
        if not a_min < a_max:
            raise UsageError(f"--a-max must exceed --a-min, got {a_max!r} <= {a_min!r}")
        smap = sign_map(lam, theta, config.b, (a_min, a_max), (0.0, x_max),
                        config.resolution, opts)
        if (config.format or "csv") == "csv":
            text = _sign_map_csv(smap)
            _emit(config, text)
            return EXIT_HOLDS, text
        payload = {
            "a_values": list(smap.a_values),
            "x_values": list(smap.x_values),
            "signs": [list(row) for row in smap.signs],
            "b": smap.b,
            "timing": None,
        }
        code = EXIT_HOLDS

    elif config.command == "failure-rate":
        _require(config, "lam", "x")
        h = HazardVector(tuple(config.lam))
        payload = {
            "lambda": list(h.rates),
            "x": config.x,
            "failure_rate": failure_rate(h, config.x),
            "timing": None,
        }
        code = EXIT_HOLDS

    elif config.command == "simulate":
        _require(config, "lam")
        h = HazardVector(tuple(config.lam))
        report = mc_survival(h, config.samples, config.seed)
        payload = {
            "lambda": list(report.rates),
            "n_samples": report.n_samples,
            "seed": report.seed,
            "sup_distance": report.sup_distance,
            "grid_x": list(report.grid_x),
            "empirical": list(report.empirical),
            "analytic": list(report.analytic),
            "timing": None,
        }
        code = EXIT_HOLDS

    else:  # unreachable: RunConfig validates the command
        raise UsageError(f"unknown command {config.command!r}")

    echo = asdict(config)
    echo.pop("out")  # artifact location does not affect the analysis
    payload["config_echo"] = echo
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    _emit(config, text)
    return code, text


def _emit(config: RunConfig, text: str) -> None:
    if config.out:
        try:
            with open(config.out, "w") as fh:
                fh.write(text)
        except OSError as exc:  # the write failed at run time: exit 3, whatever the verdict
            raise RuntimeError(f"cannot write --out: {exc}") from exc
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    started = time.perf_counter()
    try:
        config = config_from_args(argv)
        code, _ = run(config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as exc:  # a run too large for memory, such as a huge --resolution
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory",
              file=sys.stderr)
        return EXIT_ERROR
    elapsed = time.perf_counter() - started
    print(f"[{config.command}] finished in {elapsed:.3f}s -> exit {code}",
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
