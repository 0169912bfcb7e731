"""The canonical-digest check (``canonical_digests.py``) on a subset of its
grid, and the check itself: each case of the subset must give the digest
recorded in ``data/canonical_digests.json``, and ``--compare`` must name
the leaf where a body differs.  CI runs the whole case list with
``python tests/canonical_digests.py --compare``; ``test_golden.py`` runs
the listed cases."""

import json

import numpy as np
import pytest

import canonical_digests as cd

RECORDED = json.loads(cd.RECORDED.read_text())
# every input but the 32-sample one at t = 3, both circuits and modes, and
# the default circuit at t = 10: well under a second in all
SUBSET = [
    name for name in sorted(cd.cases())
    if name not in cd.LISTED_CASES
    and not name.startswith("continuous_32x8")
    and (name.endswith("-seed0-t3") or "-reduced-" in name and name.endswith("-seed1-t10"))
]


def test_every_case_is_recorded():
    assert sorted(RECORDED) == sorted(cd.cases())
    assert sorted(cd.load_bodies(cd.RECORDED)) == sorted(cd.cases())


@pytest.mark.skipif(
    int(np.__version__.split(".")[0]) < 2, reason="digests recorded under numpy 2"
)
@pytest.mark.parametrize("name", SUBSET)
def test_case_gives_its_recorded_digest(name):
    assert cd.compare(cd.RECORDED, [name]) == []


@pytest.mark.parametrize("m, n", [(16, 8), (32, 8), (8, 4)], ids=lambda v: str(v))
def test_continuous_inputs_are_generated(m, n):
    assert (cd.DATA / f"continuous_{m}x{n}.csv").read_text() == cd.continuous_csv(m, n)


def test_compare_names_the_first_differing_leaf(tmp_path):
    """A record whose body holds one changed float and another digest: the
    case is named with that leaf and the float's relative difference."""
    name = "four_by_two-reduced-exact-seed0-t3"
    file = tmp_path / "digests.json"
    cd.record(file, [name])
    assert cd.compare(file, [name]) == []
    digests, bodies = json.loads(file.read_text()), cd.load_bodies(file)
    weights = bodies[name]["results"]["classical"]["average_weights"]
    weights[1] *= 1 + 2**-40
    digests[name]["sha256"] = "0" * 64
    cd.write_record(file, digests, bodies)
    [line] = cd.compare(file, [name])
    assert line.startswith(f"{name}: first differing leaf $.results.classical.average_weights[1]: ")
    assert line.endswith("largest relative float difference 9.09e-13")


def test_compare_counts_each_class_of_differing_leaves(tmp_path):
    """Two cases whose records each hold one changed s_raw, at different
    iterations, classes and samples: one leaf class, counted twice."""
    names = ["four_by_two-reduced-exact-seed0-t3", "four_by_two-reduced-exact-seed1-t3"]
    file = tmp_path / "digests.json"
    cd.record(file, names)
    digests, bodies = json.loads(file.read_text()), cd.load_bodies(file)
    for name, (t, c, i) in zip(names, [(0, "0", 0), (2, "1", 1)]):
        log = bodies[name]["results"]["quantum"]["similarity_log"]
        log[t]["classes"][c][i]["s_raw"] *= 1 + 2**-40
        digests[name]["sha256"] = "0" * 64
    cd.write_record(file, digests, bodies)
    classes = {}
    assert len(cd.compare(file, names, classes)) == 2
    assert cd.summary(classes) == [
        "leaf class $.results.quantum.similarity_log[].classes.c[].s_raw: 2 differ; "
        "largest relative float difference 9.09e-13"
    ]


def test_a_rejected_case_records_its_exit_code_and_message():
    recorded, body = cd.run_case("example6-full-exact-seed0-t3")
    assert body is None
    assert recorded == {
        "exit": 3,
        "stderr": "data error: ae_circuit 'full' needs a power-of-two feature count "
        "of 2 or more, got N=6",
    }
