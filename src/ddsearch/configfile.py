"""Strict INI-style experiment configuration files.

Three sections: ``[objective]`` (name), ``[algorithm]`` (every solver
parameter), ``[output]`` (trace_path).  Unknown sections or keys are
rejected so a typo cannot silently reconfigure an experiment; numeric values
are decimal literals.
"""

from __future__ import annotations

import configparser
import dataclasses
import re
import typing
from dataclasses import dataclass
from pathlib import Path

from .engine import AlgoConfig
from .objective import InputError

_OBJECTIVE_KEYS = {"name"}
_ALGORITHM_KEYS = {f.name for f in dataclasses.fields(AlgoConfig)}
_ALGORITHM_OPTIONAL = {"revealing_radius", "revealing_count"}
_OUTPUT_KEYS = {"trace_path"}


class ConfigFileError(ValueError, InputError):
    """An experiment config file is missing, malformed, or inconsistent."""


@dataclass(frozen=True)
class ExperimentConfig:
    objective_name: str
    algo: AlgoConfig
    trace_path: str


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigFileError(f"field [{section}] {key}: {raw!r} is not a decimal number") from None


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw, 10)
    except ValueError:
        raise ConfigFileError(f"field [{section}] {key}: {raw!r} is not a decimal integer") from None


def _parse_vector(section: str, key: str, raw: str) -> tuple[float, ...]:
    tokens = [t for t in re.split(r"[,\s]+", raw.strip()) if t]
    if not tokens:
        raise ConfigFileError(f"field [{section}] {key}: empty vector")
    return tuple(_parse_float(section, key, t) for t in tokens)


def _parse_name(section: str, key: str, raw: str) -> str:
    return raw.strip()


# AlgoConfig field type -> parser of its config value
_PARSERS = {
    tuple[float, ...]: _parse_vector,
    float: _parse_float,
    float | None: _parse_float,
    int: _parse_int,
    str: _parse_name,
}
_ALGORITHM_TYPES = typing.get_type_hints(AlgoConfig)


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate an experiment config file.

    Raises ConfigFileError on structural problems (naming the section and
    field) and lets the algorithm-level validation in ``AlgoConfig`` surface
    through ``engine.validate_config`` at run time.
    """
    path = Path(path)
    if not path.is_file():
        # A directory or a device (/dev/null) exists but holds no config.
        problem = "is not a regular file" if path.exists() else "not found"
        raise ConfigFileError(f"config file {problem}: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigFileError(f"cannot parse {path}: {exc}") from exc

    sections = set(parser.sections())
    expected = {"objective", "algorithm", "output"}
    unknown = sections - expected
    if unknown:
        raise ConfigFileError(f"unknown section [{sorted(unknown)[0]}] in {path}")
    missing = expected - sections
    if missing:
        raise ConfigFileError(f"missing section [{sorted(missing)[0]}] in {path}")

    def check_keys(section: str, allowed: set[str], required: set[str]) -> None:
        keys = set(parser[section])
        bad = keys - allowed
        if bad:
            raise ConfigFileError(f"unknown field [{section}] {sorted(bad)[0]} in {path}")
        absent = required - keys
        if absent:
            raise ConfigFileError(f"missing field [{section}] {sorted(absent)[0]} in {path}")

    check_keys("objective", _OBJECTIVE_KEYS, _OBJECTIVE_KEYS)
    check_keys("algorithm", _ALGORITHM_KEYS, _ALGORITHM_KEYS - _ALGORITHM_OPTIONAL)
    check_keys("output", _OUTPUT_KEYS, _OUTPUT_KEYS)

    # Absent optional keys keep their AlgoConfig defaults.
    algo = {key: _PARSERS[_ALGORITHM_TYPES[key]]("algorithm", key, raw) for key, raw in parser["algorithm"].items()}
    trace_path = parser["output"]["trace_path"].strip()
    if not trace_path:
        raise ConfigFileError(f"field [output] trace_path: empty path in {path}")
    return ExperimentConfig(
        objective_name=parser["objective"]["name"].strip(),
        algo=AlgoConfig(**algo),
        trace_path=trace_path,
    )
