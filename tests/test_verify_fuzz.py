"""Fuzz of ``verify``: one leaf of a small bundle replaced by any JSON value.

Whatever the value, the verifier accepts or rejects the bundle (exit 0 or
1) and raises nothing.  A leaf replaced by a value of another JSON type is
always rejected, and so is a key added to or removed from any object of the
bundle, the top level included, and any object or array replaced by a value
of another JSON type.
"""

import json
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from twistpairs import Config, Curve, corollary_mode
from twistpairs.cli import main
from twistpairs.twistgen import bundle_to_dict


def _small_bundle() -> dict:
    # two curves, an x for each and a label: every kind of certificate field
    cfg = Config(target_count=1, factor_effort=2000)
    certs, _, report = corollary_mode(Curve(1, 1), Fraction(2), cfg)
    pp = report.pair
    bundle = bundle_to_dict([pp.curve1, pp.curve2], certs)
    return json.loads(json.dumps(bundle))


def _leaf_paths(node, prefix=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        yield prefix
        return
    for key, child in items:
        yield from _leaf_paths(child, prefix + (key,))


def _leaf(bundle, path):
    for key in path:
        bundle = bundle[key]
    return bundle


BUNDLE = _small_bundle()
LEAVES = tuple(_leaf_paths(BUNDLE))

json_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=10**300, max_value=10**301).map(lambda n: n * 10**300),
    st.sampled_from([float("inf"), float("-inf"), float("nan")]),
    st.floats(),
    st.text(max_size=12),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=3),
)


def _node_paths(node, prefix=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    yield prefix
    for key, child in items:
        yield from _node_paths(child, prefix + (key,))


# every object and array of the bundle, the top level included
NODES = tuple(_node_paths(BUNDLE))
# the bundle and its certificate: each has
# exactly its keys, so none may be added or removed
OBJECTS = tuple(path for path in NODES if isinstance(_leaf(BUNDLE, path), dict))
KEYS = tuple(path + (key,) for path in OBJECTS for key in _leaf(BUNDLE, path))


def _verify_with_leaf(tmp_path, path, value) -> int:
    bundle = json.loads(json.dumps(BUNDLE))
    if path:
        *parents, last = path
        _leaf(bundle, parents)[last] = value
    else:
        bundle = value
    out_file = tmp_path / "bundle.json"
    out_file.write_text(json.dumps(bundle))
    return main(["verify", "--input", str(out_file)])


fuzz_settings = settings(
    derandomize=True,
    deadline=None,
    max_examples=300,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@fuzz_settings
@given(path=st.sampled_from(LEAVES), value=json_values)
def test_verify_rejects_or_accepts_any_leaf(tmp_path, path, value):
    assert _verify_with_leaf(tmp_path, path, value) in (0, 1)


@fuzz_settings
@given(path=st.sampled_from(LEAVES), value=json_values)
def test_certificate_leaf_of_another_type_is_rejected(tmp_path, path, value):
    # json gives each JSON type one Python type; true is no integer, and a
    # float such as 1.0 is no integer either
    assume(type(value) is not type(_leaf(BUNDLE, path)))
    assert _verify_with_leaf(tmp_path, path, value) == 1


@fuzz_settings
@given(path=st.sampled_from(NODES),
       value=st.one_of(st.sampled_from([{}, [], ""]), json_values))
def test_node_of_another_type_is_rejected(tmp_path, capsys, path, value):
    # an object or array is read as what it is, never as the keys or items
    # of a value of another type
    assume(type(value) is not type(_leaf(BUNDLE, path)))
    capsys.readouterr()
    assert _verify_with_leaf(tmp_path, path, value) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def _holds_long_int(value) -> bool:
    """Whether ``value`` holds an integer whose JSON literal is over 20 characters."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return any(map(_holds_long_int, value))
    return type(value) is int and len(str(value)) > 20


@fuzz_settings
@given(path=st.sampled_from(OBJECTS), key=st.text(max_size=12), value=json_values)
def test_added_key_is_rejected(tmp_path, capsys, path, key, value):
    # a key the verifier does not read would be a claim it never checks
    assume(key not in _leaf(BUNDLE, path))
    capsys.readouterr()
    assert _verify_with_leaf(tmp_path, path + (key,), value) == 1
    err = capsys.readouterr().err
    if _holds_long_int(value):
        # refused while the JSON is read, before any key is looked at
        assert "JSON integer of" in err
    else:
        assert f"unexpected field {key!r}" in err


@fuzz_settings
@given(path=st.sampled_from(KEYS))
def test_removed_key_is_rejected(tmp_path, capsys, path):
    bundle = json.loads(json.dumps(BUNDLE))
    *parents, last = path
    del _leaf(bundle, parents)[last]
    out_file = tmp_path / "bundle.json"
    out_file.write_text(json.dumps(bundle))
    capsys.readouterr()
    assert main(["verify", "--input", str(out_file)]) == 1
    assert f"missing field {last!r}" in capsys.readouterr().err


def test_leaves_cover_every_certificate_field():
    names = {key for path in LEAVES for key in path if isinstance(key, str)}
    assert names == {"version", "pair", "certificates", "x", "square", "complete"}
    # each pair curve is one "a,b" leaf, and both x values are one "x1,x2" leaf
    assert ("pair", 0) in LEAVES and ("pair", 1) in LEAVES
    assert _leaf(BUNDLE, ("certificates", 0, "x")).count(",") == 1
    # the bundle and the certificate
    assert len(OBJECTS) == 2
    assert len(KEYS) == 6
    # and the pair and the certificates
    assert len(NODES) == 4
