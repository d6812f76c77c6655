"""Run configuration: JSON loading, validation, canonical serialization.

A config file is a JSON object with (all optional) keys:

    field        object — any FieldParams field (tau, h, beta, c_exc, c_inh,
                 c_glob, sigma_exc, sigma_inh, q, field_size, dt, n_steps,
                 u_init, noise_smooth_sigma); u_init may be a number, null,
                 or the string "resting" (alias for null)
    inputs       list of {label, a, p, w}; entries whose label matches a
                 default input ("target", "mp") inherit its unspecified
                 fields; defaults not mentioned are kept
    sweep        {"a_mp": {lo, hi, step}, "a_target": {lo, hi, step}}
    n_trials     trials per condition, 1 to a million (default 500)
    master_seed  nonnegative integer (default 1)
    readout      "argmax" | "centroid_above_threshold" | "first_to_threshold"
    out_dir      default output directory (string or null)

An empty config resolves to the standard parameter set. Unknown keys are
rejected, and every validation error names the offending key. A fully
resolved config serializes to a canonical JSON form that round-trips
losslessly.
"""

import json
import math
from dataclasses import InitVar, asdict, dataclass, field as dc_field, fields
from pathlib import Path

from .errors import ConfigError
from .field import FieldParams, _as_int, _finite
from .readout import METHODS
from .stimulus import GaussianInput

DEFAULT_INPUTS = (
    GaussianInput(a=6.0, p=70.0, w=30.0, label="target"),
    GaussianInput(a=0.0, p=20.0, w=30.0, label="mp"),
)

_TOP_KEYS = ("field", "inputs", "sweep", "n_trials", "master_seed", "readout", "out_dir")
_FIELD_KEYS = tuple(f.name for f in fields(FieldParams))
_INPUT_KEYS = tuple(f.name for f in fields(GaussianInput))


@dataclass(frozen=True)
class SweepRange:
    """Inclusive amplitude grid lo, lo+step, ..., hi. `name` ("a_mp" or
    "a_target") is not stored; it names the range in error messages."""

    lo: float
    hi: float
    step: float
    name: InitVar[str] = ""

    def __post_init__(self, name):
        where = f"sweep {name}" if name else "sweep"
        for key in _RANGE_KEYS:
            object.__setattr__(self, key, _finite(f"{where} {key}", getattr(self, key)))
        if self.step <= 0:
            raise ConfigError(f"{where} step must be > 0, got {self.step}")
        if self.lo > self.hi:
            raise ConfigError(f"{where} lo must be <= hi, got lo={self.lo} hi={self.hi}")
        if not (self.hi - self.lo) / self.step <= 1e6:
            raise ConfigError(f"{where} step must leave at most a million values from lo to hi, "
                              f"got lo={self.lo} hi={self.hi} step={self.step}")

    def values(self):
        n = int(math.floor((self.hi - self.lo) / self.step + 1e-9))
        return tuple(round(self.lo + k * self.step, 10) for k in range(n + 1))


_RANGE_KEYS = tuple(f.name for f in fields(SweepRange))


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration."""

    field: FieldParams = dc_field(default_factory=FieldParams)
    inputs: tuple = DEFAULT_INPUTS
    sweep_a_mp: SweepRange = SweepRange(-6.0, 4.0, 0.5)
    sweep_a_target: SweepRange = SweepRange(5.0, 10.0, 0.5)
    n_trials: int = 500
    master_seed: int = 1
    readout: str = "argmax"
    out_dir: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        for inp in self.inputs:
            if not isinstance(inp, GaussianInput):
                raise ConfigError(f"inputs must be GaussianInput values, got {inp!r}")
        labels = [inp.label for inp in self.inputs]
        for k, label in enumerate(labels):
            if label in labels[:k]:
                raise ConfigError(f"duplicate input label {label!r}")
        object.__setattr__(self, "n_trials", _as_int("n_trials", self.n_trials))
        if not 1 <= self.n_trials <= 10**6:  # a fixed cap, as on the sweep ranges
            raise ConfigError(f"n_trials must be from 1 to a million, got {self.n_trials}")
        object.__setattr__(self, "master_seed", _as_int("master_seed", self.master_seed))
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.readout not in METHODS:
            raise ConfigError(f"readout must be one of {METHODS}, got {self.readout!r}")
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            raise ConfigError(f"out_dir must be a string or null, got {self.out_dir!r}")

    def input_by_label(self, label):
        for inp in self.inputs:
            if inp.label == label:
                return inp
        raise ConfigError(f"config has no input labeled {label!r} "
                          f"(have {[i.label for i in self.inputs]})")


def default_config():
    """The standard parameter set as a resolved config."""
    return RunConfig()


def _check_keys(obj, allowed, where):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(obj).__name__}")
    unknown = [k for k in obj if k not in allowed]
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {', '.join(sorted(unknown))}")


def _merge_inputs(entries):
    if entries is None:
        return DEFAULT_INPUTS
    if not isinstance(entries, list):
        raise ConfigError("inputs must be a JSON array")
    defaults = {inp.label: inp for inp in DEFAULT_INPUTS}
    merged = []
    for entry in entries:
        _check_keys(entry, _INPUT_KEYS, "input")
        label = entry.get("label")
        if not isinstance(label, str) or not label:
            raise ConfigError("each input needs a nonempty string 'label'")
        base = defaults.get(label)
        kwargs = {}
        for key in ("a", "p", "w"):
            if key in entry:
                kwargs[key] = entry[key]
            elif base is not None:
                kwargs[key] = getattr(base, key)
            else:
                raise ConfigError(f"input {label!r} missing key {key!r}")
        merged.append(GaussianInput(label=label, **kwargs))
    labels = {inp.label for inp in merged}
    return tuple(merged) + tuple(inp for inp in DEFAULT_INPUTS if inp.label not in labels)


def _merge_range(raw, base, name):
    if raw is None:
        return base
    _check_keys(raw, _RANGE_KEYS, f"sweep {name}")
    return SweepRange(**{key: raw.get(key, getattr(base, key)) for key in _RANGE_KEYS},
                      name=name)


def config_from_dict(raw):
    """Build a resolved RunConfig from a parsed JSON object."""
    _check_keys(raw, _TOP_KEYS, "config")
    fdict = raw.get("field", {})
    _check_keys(fdict, _FIELD_KEYS, "field")
    fdict = dict(fdict)
    if fdict.get("u_init") == "resting":
        fdict["u_init"] = None  # string sentinel for the default start level
    params = FieldParams(**fdict)
    inputs = _merge_inputs(raw.get("inputs"))
    sweep = raw.get("sweep", {})
    _check_keys(sweep, ("a_mp", "a_target"), "sweep")
    base = RunConfig()
    kwargs = {
        "field": params,
        "inputs": inputs,
        "sweep_a_mp": _merge_range(sweep.get("a_mp"), base.sweep_a_mp, "a_mp"),
        "sweep_a_target": _merge_range(sweep.get("a_target"), base.sweep_a_target, "a_target"),
    }
    for key in ("n_trials", "master_seed", "readout", "out_dir"):
        if key in raw:
            kwargs[key] = raw[key]
    return RunConfig(**kwargs)


def load_config(path):
    """Load and resolve a config file; unspecified fields take defaults."""
    p = Path(path)
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {p}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config parse error in {p}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be a JSON object in {p}")
    return config_from_dict(raw)


def config_to_dict(cfg):
    """Fully resolved config as plain JSON-serializable data."""
    data = asdict(cfg)
    data["inputs"] = list(data["inputs"])
    data["sweep"] = {"a_mp": data.pop("sweep_a_mp"), "a_target": data.pop("sweep_a_target")}
    return data


def serialize_config(cfg):
    """Canonical JSON text of a resolved config (stable key order)."""
    return json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n"
