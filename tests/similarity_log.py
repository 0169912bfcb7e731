"""The shape of a report's similarity log, checked by the tier-1 tests and
by the installed-package smoke run in CI, which puts this directory on
``sys.path``."""

import numpy as np


def assert_similarity_log_shape(doc, labels):
    """Each pick's log lists every sample once, under its class: the class
    keys are the ids 0 .. n-1 as strings, sorted as strings (so "10" comes
    before "2"), each class's samples ascending, ``excluded`` at the pick
    alone, and ``s_quantized`` equal to ``y``.  ``labels`` holds each
    sample's class id, as ``load_csv`` gives them."""
    section = doc["results"]["quantum"]
    log = section["similarity_log"]
    assert [entry["picked"] for entry in log] == [it["picked"] for it in section["iterations"]]
    n_classes = int(labels.max()) + 1
    for entry in log:
        classes = entry["classes"]
        assert list(classes) == sorted(classes), entry
        assert sorted(int(c) for c in classes) == list(range(n_classes)), entry
        for c, recs in classes.items():
            assert [r["sample"] for r in recs] == np.flatnonzero(labels == int(c)).tolist(), entry
        recs = [r for c in classes for r in classes[c]]
        assert sorted(r["sample"] for r in recs) == list(range(len(labels))), entry
        assert [r["sample"] for r in recs if r["excluded"]] == [entry["picked"]], entry
        assert all(r["s_quantized"] == r["y"] for r in recs), entry
