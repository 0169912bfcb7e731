"""The listed cases of ``canonical_digests.py`` (:data:`LISTED_CASES`)
against their recorded bodies: round-robin picks, 1, 2 and 4 iterations,
and the ``full`` circuit on ``four_by_two`` at 1 to 8 readout bits.

A rerun must give the recorded body as a tree: floats within 1e-12, every
other value exactly.  Under numpy 2 it must also give the recorded bytes:
the digest of its canonical body equals the one recorded in
``data/canonical_digests.json``, so a change in the last bit of any float
fails.  (numpy 1.x is not held to the bytes, as its FFT and summation may
round differently.)  The bodies are recorded beside the digests, in
``data/canonical_digests.bodies.xz``; ``canonical_digests.py --record``
writes both.
"""

import copy
import hashlib
import json
from functools import cache

import numpy as np
import pytest

import canonical_digests as cd
from qrelieff import report

RECORDED = json.loads(cd.RECORDED.read_text())
FLOAT_TOL = 1e-12


@cache
def recorded_bodies() -> dict:
    return cd.load_bodies(cd.RECORDED)


@cache
def run(name: str) -> tuple[dict, dict | None]:
    """One run of a listed case, shared by the tree and the byte checks."""
    return cd.run_case(name)


def assert_same_tree(got, want, path="$"):
    assert type(got) is type(want), f"{path}: {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), f"{path}: keys {sorted(got)} != {sorted(want)}"
        for key in want:
            assert_same_tree(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{path}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_tree(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert abs(got - want) <= FLOAT_TOL, f"{path}: {got!r} != {want!r}"
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


def test_every_case_is_recorded():
    """Each listed case has a recorded body, and its recorded digest is the
    digest of that body."""
    bodies = recorded_bodies()
    for name in cd.LISTED_CASES:
        digest = hashlib.sha256(report.serialize(bodies[name]).encode()).hexdigest()
        assert RECORDED[name] == {"sha256": digest}, name


@pytest.mark.parametrize("name", sorted(cd.LISTED_CASES))
def test_report_matches_recorded_body(name):
    assert_same_tree(run(name)[1], recorded_bodies()[name])


@pytest.mark.skipif(
    int(np.__version__.split(".")[0]) < 2, reason="bodies recorded under numpy 2"
)
@pytest.mark.parametrize("name", sorted(cd.LISTED_CASES))
def test_report_is_byte_identical_to_recorded_body(name):
    assert run(name)[0] == RECORDED[name]


def test_tree_walk_tolerates_only_float_rounding():
    """A recorded float of a listed case moved by 1e-13 passes the tree
    check, and moved by 1e-11 fails it; so does any other change."""
    want = recorded_bodies()["four_by_two-full-exact-t1"]
    got = copy.deepcopy(want)
    got["results"]["quantum"]["average_weights"][0] += 1e-13
    assert_same_tree(got, want)
    got["results"]["quantum"]["average_weights"][0] += 1e-11
    with pytest.raises(AssertionError, match=r"^\$\.results\.quantum\.average_weights\[0\]: "):
        assert_same_tree(got, want)
    for got in ({"w": [0.5, 1.0]}, {"w": [0.5]}, {"v": [0.5, 1]}):
        with pytest.raises(AssertionError):
            assert_same_tree(got, {"w": [0.5, 1]})
