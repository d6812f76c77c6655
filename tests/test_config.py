"""Config loading, label-based merging, validation, canonical serialization."""

import copy
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from votfield import (ConfigError, SweepRange, config_from_dict, config_to_dict,
                      default_config, load_config, serialize_config)
from votfield.cli import cli_main


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
    with pytest.raises(ConfigError, match="missing key 'a'"):
        config_from_dict({"inputs": [{"label": "distractor", "p": 120.0, "w": 15.0}]})
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
    ({"sweep": {"a_target": {"bogus": 1}}}, "bogus"),
    ({"inputs": [{"label": "distractor", "a": 1, "p": 9, "w": 3, "bogus": 1}]}, "bogus"),
])
def test_unknown_keys_rejected_everywhere(raw, key):
    with pytest.raises(ConfigError, match=key):
        config_from_dict(raw)


@pytest.mark.parametrize("raw,error", [
    # a null sweep axis or inputs keeps its default, an empty object is no change
    ({"sweep": {"a_mp": None}}, None),
    ({"sweep": {"a_target": None}}, None),
    ({"inputs": None}, None),
    ({"field": {}}, None),
    ({"sweep": {}}, None),
    ({"field": {"u_init": "resting"}}, None),
    ({"field": None}, "field must be a JSON object, got NoneType"),
    ({"sweep": None}, "sweep must be a JSON object, got NoneType"),
    ({"sweep": {"a_mp": 0}}, "sweep a_mp must be a JSON object, got int"),
    ({"inputs": {}}, "inputs must be a JSON array"),
])
def test_merge_edge_cases(raw, error):
    if error is None:
        assert config_from_dict(raw) == default_config()
    else:
        with pytest.raises(ConfigError) as info:
            config_from_dict(raw)
        assert str(info.value) == error


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
    # integers beyond the float range, and widths whose square overflows
    ({"field": {"tau": 10**400}}, "tau"),
    ({"field": {"u_init": -10**400}}, "u_init"),
    ({"field": {"sigma_inh": 1.4e154}}, "sigma_inh"),
    ({"inputs": [{"label": "target", "w": 1e200}]}, "w"),
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
    # an int past numpy's 64-bit range but inside the float range is a number
    assert config_from_dict({"field": {"u_init": -2**70}}).field.u_init == -2.0**70


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


# a small config that simulates in milliseconds, and the places where the
# fuzz test below puts an odd value, deletes a key or adds one
_SMALL = {"field": {"field_size": 48, "n_steps": 6, "noise_smooth_sigma": 1.0},
          "inputs": [{"label": "target", "p": 30.0}, {"label": "mp", "p": 10.0, "w": 8.0}],
          "sweep": {"a_mp": {"lo": -2.0, "hi": 2.0, "step": 1.0}},
          "n_trials": 2, "master_seed": 3, "readout": "argmax"}
_PATHS = ([("field", key) for key in config_to_dict(default_config())["field"]]
          + [("inputs", i, key) for i in (0, 1) for key in ("label", "a", "p", "w")]
          + [("sweep", "a_mp", key) for key in ("lo", "hi", "step")]
          + [("sweep", "a_target", "step"), ("field",), ("inputs",), ("sweep",),
             ("n_trials",), ("master_seed",), ("readout",), ("out_dir",)])
_DELETE, _EXTRA = object(), object()
_ODD = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, 5e-324, 1e-320, 1e-300,
                     1e-160, 1e154, 1.4e154, 1e300, -1e300, 2**70, 10**400, True, False,
                     None, "1", "resting", [], {}, _DELETE, _EXTRA]),
    st.floats(), st.integers())


def _edit(raw, path, value):
    """Set the key at `path` in `raw` to `value`, delete it (_DELETE) or add
    an unknown key beside it (_EXTRA), where its parents are still there."""
    *parents, key = path
    node = raw
    for part in parents:
        try:
            node = node[part]
        except (KeyError, IndexError, TypeError):
            return
    if not isinstance(node, dict):
        return
    if value is _DELETE:
        node.pop(key, None)
    elif value is _EXTRA:
        node["bogus"] = 1
    else:
        node[key] = value


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(st.tuples(st.sampled_from(_PATHS), _ODD), max_size=3))
# values that once ended in a traceback, whatever the draws find
@example(edits=[(("inputs", 0, "w"), 1e-320)])
@example(edits=[(("field", "noise_smooth_sigma"), 1e-300)])
@example(edits=[(("field", "noise_smooth_sigma"), 1e300)])
@example(edits=[(("field", "tau"), 2**70)])
def test_fuzzed_configs_resolve_or_name_a_key_and_simulate_cleanly(edits, tmp_path, capfd):
    # a small config with up to three values made wrong in type or size,
    # keys deleted or unknown keys added: it resolves to a config that
    # round-trips, or raises a ConfigError naming a key that an edit set,
    # deleted or added; and simulate, batch and sweep1d (the tile loop on
    # one or two threads) exit 0, or 1 with an error line, never with a
    # traceback
    commands = ["simulate", "batch", "sweep1d"]
    raw = copy.deepcopy(_SMALL)
    for path, value in edits:
        _edit(raw, path, value)
    try:
        cfg = config_from_dict(json.loads(json.dumps(raw)))
    except ConfigError as exc:
        named = {part for path, _ in edits for part in path if isinstance(part, str)}
        if "inputs" in named:  # an input given a new label lacks a, p and w
            named |= {"a", "p", "w"}
        assert any(re.search(rf"\b{key}\b", str(exc)) for key in named | {"bogus"}), str(exc)
    else:
        text = serialize_config(cfg)
        again = config_from_dict(json.loads(text))
        assert again == cfg and serialize_config(again) == text
        if cfg.field.field_size > 64 or cfg.field.n_steps > 8:
            return
        if cfg.n_trials > 4 or len(cfg.sweep_a_mp.values()) > 8:
            commands = ["simulate"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    capfd.readouterr()
    for command in commands:
        code = cli_main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        err = capfd.readouterr().err
        assert "Traceback" not in err
        assert code == 0 or (code == 1 and err.startswith("error: ")), (command, err)
