"""The benchmark's own tests, at a smoke size of a few seconds.

    python3 -m pytest bench -q
"""

import io
import json
from contextlib import redirect_stdout

import numpy as np
import pytest

from common import SMOKE, use_source_tree

mk = use_source_tree()

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from reference import reference_rerank, reference_search, reference_shortlist, same_ranking  # noqa: E402


def run_smoke(tmp_path, workload, trace, seed=3):
    buf = io.StringIO()
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.05", "--trace", str(trace)]
    with redirect_stdout(buf):
        code = run.main(argv, sizes=SMOKE, out=tmp_path)
    assert code == 0
    return buf.getvalue().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_runs_end_to_end_with_declared_metrics(tmp_path, workload, trace):
    lines = run_smoke(tmp_path, workload, trace)
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = compare.declared(compare.load_spec(), trace)
    assert list(result["metrics"]) == list(want)
    for name, entry in want.items():
        assert result["metrics"][name]["unit"] == entry["unit"]
        assert np.isfinite(result["metrics"][name]["value"])
        assert any(line.split()[:1] == [name] for line in lines[:-1]), f"{name} not printed"
    if trace:
        assert (tmp_path / "traces" / f"{workload}-seed3.json").is_file()


def test_declared_workloads_match_the_runner():
    spec = compare.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER_UNITS


def test_missing_library_exits_nonzero_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "use_source_tree", lambda: (_ for _ in ()).throw(run.MissingLibrary("gone")))
    code = run.main(["--workload", "build", "--seed", "1", "--seconds", "1"], sizes=SMOKE, out=tmp_path)
    assert code != 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("workload, name", [("online-t", "search"), ("batch-n", "search_ids")])
def test_wrong_ids_from_the_library_count_as_failed(tmp_path, monkeypatch, workload, name):
    real = getattr(mk, name)

    def swapped(*args, **kwargs):
        out = real(*args, **kwargs)
        if name == "search":
            ranked = list(out.ranked)
            ranked[0], ranked[1] = ranked[1], ranked[0]
            return mk.SearchResult(tuple(ranked), out.metric, out.shortlist_size)
        out = out.copy()
        out[0, [0, 1]] = out[0, [1, 0]]
        return out

    monkeypatch.setattr(mk, name, swapped)
    result = json.loads(run_smoke(tmp_path, workload, 0)[-1])
    assert result["correct"] is False
    assert result["failed"] > 0


def shift_take(monkeypatch):
    real = mk.VectorReader.take
    monkeypatch.setattr(mk.VectorReader, "take", lambda self, ids: real(self, (np.asarray(ids) + 1) % self.count))


def shift_read_base(monkeypatch):
    real = mk.read_vectors

    def shifted(path, *args, **kwargs):
        out = real(path, *args, **kwargs)
        return np.roll(out, 1, axis=0) if str(path).endswith("base.fvecs") else out

    monkeypatch.setattr(mk, "read_vectors", shifted)


@pytest.mark.parametrize("workload, shift", [("online-t", shift_take), ("batch-n", shift_read_base)])
def test_shifted_base_rows_from_the_library_count_as_failed(tmp_path, monkeypatch, workload, shift):
    # online-t re-ranks rows from VectorReader.take and batch-n rows from
    # read_vectors; the reference reads the file itself, so rows shifted by
    # one in the library's reader must not go unnoticed
    shift(monkeypatch)
    result = json.loads(run_smoke(tmp_path, workload, 0)[-1])
    assert result["correct"] is False
    assert result["failed"] > 0


@pytest.fixture(scope="module")
def small_index():
    ds = mk.generate_synthetic(mk.SyntheticSpec(n_clusters=10, points_per_cluster=40, dim=8, seed=5, n_queries=4))
    cb = mk.train(ds.learning, 16, mk.TrainParams(seed=5))
    spec = mk.EncoderSpec(mk.Variant.T)
    index = mk.build_index(mk.encode_many(ds.base, cb, spec), np.arange(len(ds.base)), spec, cb)
    return ds, index


def test_reference_agrees_with_the_library(small_index):
    ds, index = small_index
    for q in ds.queries:
        code = mk.encode(q, index.quantizer, index.spec)
        res = mk.search(index, ds.base, q, 60, 10)
        want_ids, want_scores = reference_search(index.codes, index.ids, code.words, q, ds.base.__getitem__, 60, 10)
        assert same_ranking(res.ids(), [s for _, s in res.ranked], want_ids, want_scores)
        assert np.array_equal(mk.shortlist(index, code, 60), reference_shortlist(index.codes, index.ids, code.words, 60))


def test_reference_flags_a_perturbed_id_row(small_index):
    ds, index = small_index
    q = ds.queries[0]
    ids = mk.search_ids(index, ds.base, q[None, :], 60, 10)[0]
    code = mk.encode(q, index.quantizer, index.spec)
    want, _ = reference_search(index.codes, index.ids, code.words, q, ds.base.__getitem__, 60, 10)
    assert same_ranking(ids, None, want, None)
    bad = ids.copy()
    bad[3] = (bad[3] + 1) % len(ds.base)
    assert not same_ranking(bad, None, want, None)
    assert not same_ranking(ids[::-1], None, want, None)


def test_reference_flags_an_off_by_one_tie_order():
    # eight identical codes tie at every distance: a shortlist of 5 must be
    # ids 0..4; taking id 5 in place of id 4 at the cutoff is one tie off
    codes = np.zeros((8, 1), dtype=np.uint64)
    codes[6:] = 1
    ids = np.arange(8)
    want = reference_shortlist(codes, ids, np.zeros(1, dtype=np.uint64), 5)
    assert want.tolist() == [0, 1, 2, 3, 4]
    assert not np.array_equal(np.array([0, 1, 2, 3, 5]), want)
    # equal exact distances re-rank by ascending id
    vecs = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    cand = np.array([7, 3, 5])
    got_ids, got_d = reference_rerank(cand, vecs, np.zeros(2), 3)
    assert got_ids.tolist() == [3, 5, 7]
    assert not same_ranking([3, 7, 5], got_d, got_ids, got_d)


def test_verdict_rules():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 10.0, 9.9]
    faster = [v * 0.8 for v in parent]
    assert compare.verdict(parent, faster, "lower", 0.1)["verdict"] == "gain"
    slower = [v * 1.2 for v in parent]
    assert compare.verdict(parent, slower, "lower", 0.1)["verdict"] == "regression"
    assert compare.verdict(parent, parent, "lower", 0.1)["verdict"] == "unchanged"
    noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 7.0, 13.0, 10.0, 10.0]
    assert compare.verdict(noisy, list(reversed(noisy)), "lower", 0.1)["verdict"] == "unresolved"
    s = compare.summary([1.0, 2.0, 3.0, 4.0])
    assert (s["q1"], s["median"], s["q3"]) == (1.25, 2.5, 3.75)
