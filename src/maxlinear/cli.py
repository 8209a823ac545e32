"""Command-line interface.

Subcommands: simulate | learn | study | extremes | transform.

Each subcommand is one config dataclass of :mod:`maxlinear.pipeline` and
the ``run_*`` function that takes it (``COMMANDS``).  Every field of the
config is one ``--<field>`` flag and one key of the optional JSON config
file (``--config``); the default lives only on the field, and explicit
flags win over config-file values.  Values are read by the field's type:
a ``bool`` field is a switch on the command line (``--<field>`` or
``--no-<field>``) and JSON ``true`` or ``false`` in a config file, which
no other field takes; an ``int`` field takes an integral number, and a
tuple field takes a JSON list or a comma-separated string.  The configs
check their own choice fields.

A successful command prints one timing line, ``<command>: N.NNNs``, to
stderr; the outputs it writes do not depend on it.

A failed command prints one ``error:`` line and exits with the
``exit_code`` of its class in :mod:`maxlinear.errors`; a builtin
``ValueError`` exits as a ``ValidationError``, an ``OSError`` as a
``FileFormatError``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
import types
from dataclasses import MISSING, fields
from pathlib import Path
from typing import Any, Sequence, get_args, get_origin, get_type_hints

from .errors import FileFormatError, MaxLinearError, ValidationError
from .pipeline import (
    ExtremesConfig,
    LearnConfig,
    SimulateConfig,
    StudyConfig,
    TransformConfig,
    run_extremes,
    run_learn,
    run_simulate,
    run_study,
    run_transform,
)

COMMANDS = {
    "simulate": (SimulateConfig, run_simulate, "simulate a max-linear sample"),
    "learn": (LearnConfig, run_learn, "learn order and coefficients"),
    "study": (StudyConfig, run_study, "reordering success study"),
    "extremes": (ExtremesConfig, run_extremes, "largest bivariate exceedances"),
    "transform": (TransformConfig, run_transform, "margin transforms of a sample CSV"),
}

HELP = {
    "out": "output directory (simulate, learn, study) or CSV path (extremes, transform)",
    "dag": "'ten-node' preset or a DAG file (text/JSON)",
    "weights": "preset, paper (redrawn at random), unit or a matrix file; study: preset or paper",
    "n": "number of observations",
    "seed": "random seed",
    "workers": "accepted and checked (>= 1) but unused: study runs on one thread",
    "data": "sample CSV (learn: estimated mode)",
    "model": "coefficient matrix file (learn: exact-scalings mode; extremes: simulated source)",
    "k": "polar-decomposition threshold count, --scalings spectral only; None means ceil(sqrt(n))",
    "a": "scaling factor a > 1; None keeps the ordering preset",
    "eps1": "initial-band upper tolerance (learn --model, study); None keeps the preset",
    "eps2": "initial-band lower tolerance (learn --model, study); None keeps the preset",
    "eps3": "generation-pass tolerance; None keeps the ordering preset",
    "transform": "margin transform before estimation: frechet, negate-frechet or none",
    "scalings": "data-mode recovery on one order: mle (Fréchet MLE) or spectral (polar, at k)",
    "prune": "zero estimated off-diagonal coefficients below this value",
    "diagnostics": "report degenerate recovery-variance directions",
    "sizes": "sample sizes, comma-separated",
    "runs": "runs per sample size",
    "mode": "scaling source: estimated or exact-scalings",
    "detail": "also write per-run outcomes",
    "pairs": "'all' or a comma list like '1-2,3-4'",
    "count": "exceedances per pair",
    "source": "data source(s): real, simulated or both",
    "ops": "comma list from negate, negative-part, frechet, applied in order",
}


# the resolved field types of a config class, read once per process
_hints = functools.cache(get_type_hints)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parsing
    leaves it unchanged, so in-process callers of ``main`` share it."""
    parser = argparse.ArgumentParser(
        prog="maxlinear",
        description=(
            "Structure learning and coefficient estimation for recursive "
            "max-linear models on DAGs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (cls, _, text) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="JSON config file; explicit flags override its values")
        hints = _hints(cls)
        for f in fields(cls):
            default = "required" if f.default is MISSING else f"default: {f.default}"
            kw: dict[str, Any] = {"help": f"{HELP[f.name]} ({default})"}
            if hints[f.name] is bool:
                kw.update(action=argparse.BooleanOptionalAction, default=None)
            p.add_argument(f"--{f.name}", **kw)
    return parser


def _load_config_file(path: str | None) -> dict[str, Any]:
    if path is None:
        return {}
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise FileFormatError(f"cannot read config file {path}: {exc}") from exc
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise FileFormatError(f"config file {path} must hold a JSON object")
    return payload


def _coerce(name: str, hint: Any, value: Any) -> Any:
    """``value`` (a flag string or a JSON value) as the type ``hint``."""
    if isinstance(hint, types.UnionType):  # X | None; None means "not given"
        (hint,) = [h for h in get_args(hint) if h is not type(None)]
    if hint is bool:
        if not isinstance(value, bool):
            raise ValidationError(f"option {name} must be true or false, got {value!r}")
        return value
    if get_origin(hint) is tuple:
        if not isinstance(value, list):
            value = [tok.strip() for tok in str(value).split(",") if tok.strip()]
        return tuple(_coerce(name, get_args(hint)[0], v) for v in value)
    if isinstance(value, bool) or (
        hint is int and isinstance(value, float) and not value.is_integer()
    ):
        raise ValidationError(f"option {name}: cannot read {value!r} as {hint.__name__}")
    try:
        return hint(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            f"option {name}: cannot read {value!r} as {hint.__name__}"
        ) from exc


def _make_config(cls: type, args: argparse.Namespace) -> Any:
    """The config ``cls`` from the config file under flag overrides."""
    names = {f.name for f in fields(cls)}
    given = _load_config_file(args.config)
    unknown = sorted(set(given) - names)
    if unknown:
        raise ValidationError(f"unknown config key(s): {', '.join(unknown)}")
    given.update({k: v for k, v in vars(args).items() if k in names and v is not None})
    hints = _hints(cls)
    values = {}
    for f in fields(cls):
        if given.get(f.name) is not None:
            values[f.name] = _coerce(f.name, hints[f.name], given[f.name])
        elif f.default is MISSING:
            raise ValidationError(f"missing required option: {f.name}")
    return cls(**values)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    cls, run, _ = COMMANDS[args.command]
    try:
        cfg = _make_config(cls, args)
        start = time.perf_counter()
        run(cfg)
    except (MaxLinearError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, MaxLinearError):
            return exc.exit_code
        return (ValidationError if isinstance(exc, ValueError) else FileFormatError).exit_code
    print(f"{args.command}: {time.perf_counter() - start:.3f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
