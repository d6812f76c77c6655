"""Config loading, label-based merging, validation, canonical serialization."""

import json
import math
from pathlib import Path

import pytest

from votfield import (ConfigError, SweepRange, config_from_dict, config_to_dict,
                      default_config, load_config, serialize_config)


def write(tmp_path, data):
    p = tmp_path / "cfg.json"
    p.write_text(data if isinstance(data, str) else json.dumps(data))
    return p


def test_empty_config_resolves_to_standard_parameters(tmp_path):
    cfg = load_config(write(tmp_path, {}))
    assert cfg == default_config()
    assert cfg.field.tau == 20.0 and cfg.field.q == 1.0
    assert cfg.n_trials == 500 and cfg.master_seed == 1
    assert cfg.readout == "argmax" and cfg.out_dir is None
    assert [i.label for i in cfg.inputs] == ["target", "mp"]
    assert cfg.input_by_label("target").a == 6.0
    assert cfg.input_by_label("mp").a == 0.0  # competitor off by default


def test_partial_override_merges_onto_defaults(tmp_path):
    raw = {"field": {"q": 0.0, "tau": 10},
           "inputs": [{"label": "mp", "a": -3.0}],
           "n_trials": 12}
    cfg = load_config(write(tmp_path, raw))
    assert cfg.field.q == 0.0 and cfg.field.tau == 10.0
    assert cfg.field.h == -5.0  # untouched field default
    mp = cfg.input_by_label("mp")
    assert (mp.a, mp.p, mp.w) == (-3.0, 20.0, 30.0)  # unspecified keys inherited
    assert cfg.input_by_label("target").a == 6.0  # unmentioned default kept
    assert cfg.n_trials == 12


def test_new_input_label_requires_full_geometry(tmp_path):
    raw = {"inputs": [{"label": "distractor", "a": 1.0, "p": 120.0}]}
    with pytest.raises(ConfigError, match="w"):
        load_config(write(tmp_path, raw))
    raw["inputs"][0]["w"] = 15.0
    cfg = load_config(write(tmp_path, raw))
    assert {i.label for i in cfg.inputs} == {"distractor", "target", "mp"}


def test_duplicate_and_unlabeled_inputs_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        config_from_dict({"inputs": [{"label": "mp", "a": 1.0},
                                     {"label": "mp", "a": 2.0}]})
    with pytest.raises(ConfigError, match="label"):
        config_from_dict({"inputs": [{"a": 1.0, "p": 10.0, "w": 5.0}]})


@pytest.mark.parametrize("raw,key", [
    ({"fields": {}}, "fields"),
    ({"field": {"taus": 1}}, "taus"),
    ({"inputs": [{"label": "mp", "amp": 1}]}, "amp"),
    ({"sweep": {"a_both": {}}}, "a_both"),
    ({"sweep": {"a_mp": {"low": 0}}}, "low"),
])
def test_unknown_keys_rejected_everywhere(raw, key):
    with pytest.raises(ConfigError, match=key):
        config_from_dict(raw)


@pytest.mark.parametrize("raw,key", [
    ({"field": {"tau": 0}}, "tau"),
    ({"field": {"tau": "fast"}}, "tau"),
    ({"n_trials": 0}, "n_trials"),
    ({"n_trials": 2.5}, "n_trials"),
    ({"master_seed": -2}, "master_seed"),
    ({"readout": "mode"}, "readout"),
    ({"out_dir": 3}, "out_dir"),
    ({"field": {"u_init": "awake"}}, "u_init"),
    ({"inputs": [{"label": "mp", "a": True}]}, "a"),
])
def test_validation_errors_name_offending_key(raw, key):
    with pytest.raises(ConfigError, match=key):
        config_from_dict(raw)


def test_malformed_files(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.json")
    with pytest.raises(ConfigError, match="parse"):
        load_config(write(tmp_path, "{not json"))
    with pytest.raises(ConfigError, match="object"):
        load_config(write(tmp_path, "[1, 2]"))
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"readout": "\xff"}')  # not UTF-8
    with pytest.raises(ConfigError, match="parse error") as info:
        load_config(latin1)
    assert str(latin1) in str(info.value)
    with pytest.raises(OSError):  # a directory exists: the OS's own error, not "not found"
        load_config(tmp_path)


def test_serialization_round_trips_canonically(tmp_path):
    raw = {"field": {"q": 0.5, "n_steps": 90},
           "inputs": [{"label": "mp", "a": -1.5}],
           "sweep": {"a_mp": {"lo": -2, "hi": 2, "step": 1}},
           "n_trials": 7, "master_seed": 3,
           "readout": "centroid_above_threshold", "out_dir": "runs"}
    cfg = load_config(write(tmp_path, raw))
    text = serialize_config(cfg)
    canon = tmp_path / "canon.json"
    canon.write_text(text)
    cfg2 = load_config(canon)
    assert cfg2 == cfg  # lossless round trip
    assert serialize_config(cfg2) == text  # canonical fixed point
    assert text.endswith("\n")
    assert json.loads(text)["sweep"]["a_mp"] == {"lo": -2.0, "hi": 2.0, "step": 1.0}


def test_config_to_dict_is_plain_json_data():
    d = config_to_dict(default_config())
    json.dumps(d)
    assert d["field"]["u_init"] is None
    assert d["out_dir"] is None
    assert d["sweep"]["a_target"] == {"lo": 5.0, "hi": 10.0, "step": 0.5}


def test_u_init_accepts_number_null_and_resting_sentinel():
    assert config_from_dict({"field": {"u_init": -2}}).field.u_init == -2.0
    assert config_from_dict({"field": {"u_init": None}}).field.u_init is None
    assert config_from_dict({"field": {"u_init": "resting"}}).field.u_init is None


def test_sweep_range_builds_inclusive_grid():
    vals = SweepRange(-6.0, 4.0, 0.5).values()
    assert len(vals) == 21
    assert vals[0] == -6.0 and vals[-1] == 4.0
    assert SweepRange(5.0, 10.0, 0.5).values() == tuple(5.0 + 0.5 * k for k in range(11))
    assert SweepRange(2.0, 2.0, 1.0).values() == (2.0,)
    with pytest.raises(ConfigError, match="step"):
        SweepRange(0.0, 1.0, 0.0)
    with pytest.raises(ConfigError, match="lo"):
        SweepRange(3.0, 1.0, 0.5)
    for key, val in (("lo", math.nan), ("hi", math.inf), ("lo", -math.inf),
                     ("step", math.nan), ("step", math.inf)):
        with pytest.raises(ConfigError, match=f"sweep {key} must be a finite number"):
            SweepRange(**{"lo": 0.0, "hi": 1.0, "step": 0.5, key: val})
    # a config file's error names the range; Python's json reads the NaN and
    # Infinity literals
    for text, msg in (('{"sweep": {"a_mp": {"lo": NaN}}}', "sweep a_mp lo must be a finite"),
                      ('{"sweep": {"a_mp": {"hi": Infinity}}}', "sweep a_mp hi must be a finite"),
                      ('{"sweep": {"a_target": {"lo": -Infinity}}}',
                       "sweep a_target lo must be a finite"),
                      ('{"sweep": {"a_target": {"step": 0}}}', "sweep a_target step must be > 0"),
                      ('{"sweep": {"a_mp": {"lo": 5}}}', "sweep a_mp lo must be <= hi")):
        with pytest.raises(ConfigError, match=f"^{msg}"):
            config_from_dict(json.loads(text))


def test_shipped_defaults_file_matches_resolved_empty_config():
    path = Path(__file__).resolve().parents[1] / "configs" / "defaults.json"
    assert load_config(path) == default_config()
    assert path.read_text() == serialize_config(default_config())
