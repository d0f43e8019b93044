import json
import struct
import subprocess
import sys

import numpy as np
import pytest

from multikmeans import __version__
from multikmeans.cli import _sample_rows, main
from multikmeans.core import Metric, derive_seed
from multikmeans.dataio import read_labels, read_vectors, write_vectors
from multikmeans.evaluate import label_relevance, mean_average_precision, recall_at_r
from multikmeans.index import load_index, search_ids


def run_ok(argv):
    code = main(argv)
    assert code == 0, f"command {argv} exited {code}"


@pytest.fixture(scope="session")
def workdir(tmp_path_factory):
    """A small generated dataset with a trained codebook and index per variant."""
    root = tmp_path_factory.mktemp("cliwork")
    run_ok(
        [
            "gen", "--out-dir", str(root), "--clusters", "8", "--per-cluster", "30",
            "--dim", "16", "--spread", "0.05", "--queries", "24", "--learning", "64",
            "--gt-depth", "20", "--seed", "5",
        ]
    )
    run_ok(
        [
            "train", "--learning", str(root / "learning.fvecs"), "--variant", "t",
            "--k", "16", "--seed", "5", "--out", str(root / "cb.mkmc"),
        ]
    )
    run_ok(
        [
            "index", "--codebook", str(root / "cb.mkmc"), "--base", str(root / "base.fvecs"),
            "--variant", "t", "--out", str(root / "t.mkmi"),
        ]
    )
    return root


class TestBasics:
    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert __version__ in capsys.readouterr().out

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "multikmeans", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert __version__ in proc.stdout


class TestGen:
    def test_outputs_are_consistent(self, workdir):
        base = read_vectors(workdir / "base.fvecs")
        queries = read_vectors(workdir / "queries.fvecs")
        learning = read_vectors(workdir / "learning.fvecs")
        gt = read_vectors(workdir / "groundtruth.ivecs")
        assert base.shape == (240, 16)
        assert queries.shape == (24, 16)
        assert learning.shape == (64, 16)
        assert gt.shape == (24, 20)
        assert gt.min() >= 0 and gt.max() < 240

    def test_deterministic_across_runs(self, workdir, tmp_path):
        run_ok(
            [
                "gen", "--out-dir", str(tmp_path), "--clusters", "8", "--per-cluster", "30",
                "--dim", "16", "--spread", "0.05", "--queries", "24", "--learning", "64",
                "--gt-depth", "20", "--seed", "5",
            ]
        )
        for name in ("base.fvecs", "queries.fvecs", "groundtruth.ivecs"):
            assert (tmp_path / name).read_bytes() == (workdir / name).read_bytes()

    def test_bad_spec_exits_2(self, tmp_path):
        assert main(["gen", "--out-dir", str(tmp_path), "--clusters", "1"]) == 2


class TestGt:
    def test_matches_generated_file(self, workdir, tmp_path):
        out = tmp_path / "gt.ivecs"
        run_ok(
            [
                "gt", "--base", str(workdir / "base.fvecs"),
                "--queries", str(workdir / "queries.fvecs"),
                "--out", str(out), "--depth", "20",
            ]
        )
        assert out.read_bytes() == (workdir / "groundtruth.ivecs").read_bytes()

    def test_depth_beyond_base_exits_2(self, workdir, tmp_path):
        code = main(
            [
                "gt", "--base", str(workdir / "base.fvecs"),
                "--queries", str(workdir / "queries.fvecs"),
                "--out", str(tmp_path / "gt.ivecs"), "--depth", "1000",
            ]
        )
        assert code == 2


class TestQuery:
    def test_self_query_ranks_itself_first(self, workdir, capsys):
        run_ok(
            [
                "query", "--index", str(workdir / "t.mkmi"),
                "--base", str(workdir / "base.fvecs"),
                "--query-file", str(workdir / "base.fvecs"),
                "--query-row", "7", "--top", "5", "--shortlist", "50",
            ]
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split("\t") == ["rank", "id", "distance"]
        first = lines[1].split("\t")
        assert first[0] == "1" and first[1] == "7"
        assert float(first[2]) == 0.0
        assert len(lines) == 6

    def test_cosine_header(self, workdir, capsys):
        run_ok(
            [
                "query", "--index", str(workdir / "t.mkmi"),
                "--base", str(workdir / "base.fvecs"),
                "--query-file", str(workdir / "queries.fvecs"),
                "--metric", "cosine", "--top", "3", "--shortlist", "50",
            ]
        )
        out = capsys.readouterr().out
        assert "similarity" in out.splitlines()[0]

    def test_oversized_shortlist_is_clamped_with_note(self, workdir, capsys):
        run_ok(
            [
                "query", "--index", str(workdir / "t.mkmi"),
                "--base", str(workdir / "base.fvecs"),
                "--query-file", str(workdir / "queries.fvecs"),
                "--shortlist", "100000", "--top", "3",
            ]
        )
        assert "clamped to index size 240" in capsys.readouterr().err


class TestEvalRecall:
    def eval_args(self, workdir, extra=()):
        return [
            "eval", "--index", str(workdir / "t.mkmi"),
            "--base", str(workdir / "base.fvecs"),
            "--queries", str(workdir / "queries.fvecs"),
            "--gt", str(workdir / "groundtruth.ivecs"),
            "--recall-at", "1,10", "--shortlist", "240", *extra,
        ]

    def test_recall_is_high_on_separated_clusters(self, workdir, capsys):
        run_ok(self.eval_args(workdir))
        report = json.loads(capsys.readouterr().out)
        assert report["mode"] == "recall"
        assert report["runs_averaged"] == 1
        assert report["recall_at"]["1"] >= 0.9
        assert report["recall_at"]["10"] >= report["recall_at"]["1"]

    def test_json_report_is_byte_deterministic(self, workdir, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_ok(self.eval_args(workdir, ("--out", str(a))))
        run_ok(self.eval_args(workdir, ("--out", str(b))))
        assert a.read_bytes() == b.read_bytes()

    def test_multi_seed_sampling(self, workdir, capsys):
        run_ok(self.eval_args(workdir, ("--seeds", "1,2", "--query-sample", "10")))
        report = json.loads(capsys.readouterr().out)
        assert report["runs_averaged"] == 2
        assert [run["seed"] for run in report["per_run"]] == [1, 2]
        assert all(run["query_count"] == 10 for run in report["per_run"])

    def test_depths_beyond_shortlist_are_dropped_with_note(self, workdir, capsys):
        run_ok(self.eval_args(workdir, ("--recall-at", "1,10,100000")))
        captured = capsys.readouterr()
        assert "exceed the shortlist" in captured.err
        report = json.loads(captured.out)
        assert report["config"]["recall_at_requested"] == [1, 10, 100000]
        assert report["config"]["recall_at"] == [1, 10]
        assert set(report["recall_at"]) == {"1", "10"}

    def test_missing_gt_exits_2(self, workdir):
        argv = [
            "eval", "--index", str(workdir / "t.mkmi"),
            "--base", str(workdir / "base.fvecs"),
            "--queries", str(workdir / "queries.fvecs"),
        ]
        assert main(argv) == 2

    def test_mismatched_gt_exits_3(self, workdir, tmp_path):
        out = tmp_path / "short.ivecs"
        run_ok(
            [
                "gt", "--base", str(workdir / "base.fvecs"),
                "--queries", str(workdir / "base.fvecs"),
                "--out", str(out), "--depth", "2",
            ]
        )
        assert main(self.eval_args(workdir)[:-4] + ["--gt", str(out)]) == 3


class TestEvalMap:
    def test_map_with_stratified_sampling(self, workdir, capsys):
        run_ok(
            [
                "eval", "--index", str(workdir / "t.mkmi"),
                "--base", str(workdir / "base.fvecs"),
                "--queries", str(workdir / "queries.fvecs"),
                "--mode", "map",
                "--base-labels", str(workdir / "base_labels.txt"),
                "--query-labels", str(workdir / "query_labels.txt"),
                "--map-depth", "30", "--shortlist", "240",
                "--seeds", "3,4", "--query-sample", "16",
            ]
        )
        report = json.loads(capsys.readouterr().out)
        assert report["mode"] == "map"
        assert report["map_value"] >= 0.9
        assert report["runs_averaged"] == 2

    def test_missing_labels_exit_2(self, workdir):
        argv = [
            "eval", "--index", str(workdir / "t.mkmi"),
            "--base", str(workdir / "base.fvecs"),
            "--queries", str(workdir / "queries.fvecs"),
            "--mode", "map",
        ]
        assert main(argv) == 2


def eval_argv(workdir, *extra, index="t.mkmi"):
    return [
        "eval", "--index", str(workdir / index),
        "--base", str(workdir / "base.fvecs"),
        "--queries", str(workdir / "queries.fvecs"), *extra,
    ]


def query_argv(workdir, *extra):
    return [
        "query", "--index", str(workdir / "t.mkmi"),
        "--base", str(workdir / "base.fvecs"),
        "--query-file", str(workdir / "queries.fvecs"), *extra,
    ]


class TestEvalErrors:
    @pytest.mark.parametrize(
        "tokens, code, message",
        [
            (("@eval", "@gt", "--query-sample", "25"), 2, "--query-sample 25 exceeds query count 24"),
            (("@eval", "@map", "--query-labels", "@odd", "--query-sample", "4"), 2,
             "queries of class 7, file has 1"),
            (("@eval", "@map", "--base-labels", "@qlabels"), 3, "24 base labels for 240 base vectors"),
            (("@eval", "@gt", "--recall-at", "0"), 2, "--recall-at depths must be at least 1"),
            (("@eval", "@gt", "--recall-at", "50", "--shortlist", "20"), 2, "no --recall-at depth fits"),
            (("@eval", "@map", "--map-depth", "0"), 2, "--map-depth must be at least 1"),
            (("@eval", "@map", "--map-depth", "300"), 0, "note: map depth clamped to shortlist size 240"),
            # flag checks come before the first file read; the later --index wins
            (("@eval", "--index", "@missing", "--shortlist", "0"), 2, "--shortlist must be at least 1"),
            (("@query", "--index", "@missing", "--shortlist", "0"), 2, "--shortlist must be at least 1"),
        ],
        ids=[
            "sample-above-count", "class-too-small", "base-label-count", "recall-at-0",
            "no-depth-fits", "map-depth-0", "map-depth-clamped", "eval-check-order",
            "query-check-order",
        ],
    )
    def test_exit_code_and_message(self, workdir, tmp_path, capsys, tokens, code, message):
        odd = tmp_path / "odd_labels.txt"
        odd.write_text("7\n" + "0\n" * 23)  # one query of class 7
        expand = {
            "@eval": eval_argv(workdir),
            "@query": query_argv(workdir),
            "@gt": ["--gt", str(workdir / "groundtruth.ivecs")],
            "@map": [
                "--mode", "map", "--base-labels", str(workdir / "base_labels.txt"),
                "--query-labels", str(workdir / "query_labels.txt"),
            ],
            "@odd": [str(odd)],
            "@qlabels": [str(workdir / "query_labels.txt")],
            "@missing": [str(tmp_path / "missing.mkmi")],
        }
        argv = [arg for tok in tokens for arg in expand.get(tok, [tok])]
        assert main(argv) == code
        assert message in capsys.readouterr().err


@pytest.fixture(scope="module")
def noisy(tmp_path_factory):
    """Overlapping clusters under an n2 index, so recall and MAP both fall below 1."""
    root = tmp_path_factory.mktemp("noisy")
    run_ok(
        [
            "gen", "--out-dir", str(root), "--clusters", "6", "--per-cluster", "40",
            "--dim", "16", "--spread", "0.5", "--queries", "30", "--learning", "64",
            "--gt-depth", "20", "--seed", "9",
        ]
    )
    run_ok(
        [
            "train", "--learning", str(root / "learning.fvecs"), "--variant", "n2",
            "--k", "16", "--seed", "9", "--out", str(root / "cb.mkm2"),
        ]
    )
    run_ok(
        [
            "index", "--codebook", str(root / "cb.mkm2"), "--base", str(root / "base.fvecs"),
            "--variant", "n2", "--n", "4", "--out", str(root / "n2.mkmi"),
        ]
    )
    run_ok(
        [
            "gt", "--base", str(root / "base.fvecs"), "--queries", str(root / "queries.fvecs"),
            "--out", str(root / "gt_cos.ivecs"), "--depth", "20", "--metric", "cosine",
        ]
    )
    return root


class TestEvalScores:
    """Each per-run value equals the library metric on an independently drawn sample."""

    def map_argv(self, noisy, *extra):
        return eval_argv(
            noisy, "--mode", "map", "--base-labels", str(noisy / "base_labels.txt"),
            "--query-labels", str(noisy / "query_labels.txt"), "--map-depth", "40",
            "--shortlist", "120", "--seeds", "3,4", "--query-sample", "12", *extra, index="n2.mkmi",
        )

    def test_recall_matches_recall_at_r(self, noisy, capsys):
        run_ok(
            eval_argv(
                noisy, "--gt", str(noisy / "gt_cos.ivecs"), "--metric", "cosine",
                "--recall-at", "1,5,10", "--shortlist", "40", "--seeds", "1,2",
                "--query-sample", "20", index="n2.mkmi",
            )
        )
        report = json.loads(capsys.readouterr().out)
        idx = load_index(noisy / "n2.mkmi")
        base = read_vectors(noisy / "base.fvecs")
        queries = read_vectors(noisy / "queries.fvecs")
        gt = read_vectors(noisy / "gt_cos.ivecs")
        assert [run["seed"] for run in report["per_run"]] == [1, 2]
        for run in report["per_run"]:
            rng = np.random.default_rng(derive_seed(run["seed"], 20))
            sel = _sample_rows(queries.shape[0], rng, 20, None)
            ids = search_ids(idx, base, queries[sel], 40, 10, Metric.COSINE)
            for r in (1, 5, 10):
                assert run["recall_at"][str(r)] == recall_at_r(ids, gt[sel], r)
        rates = [run["recall_at"]["1"] for run in report["per_run"]]
        assert 0 < report["recall_at"]["1"] < 1
        assert report["recall_at"]["1"] == float(np.mean(rates))

    def test_map_matches_mean_average_precision(self, noisy, capsys):
        run_ok(self.map_argv(noisy))
        report = json.loads(capsys.readouterr().out)
        idx = load_index(noisy / "n2.mkmi")
        base = read_vectors(noisy / "base.fvecs")
        queries = read_vectors(noisy / "queries.fvecs")
        base_labels = read_labels(noisy / "base_labels.txt")
        query_labels = read_labels(noisy / "query_labels.txt")
        assert [run["seed"] for run in report["per_run"]] == [3, 4]
        for run in report["per_run"]:
            rng = np.random.default_rng(derive_seed(run["seed"], 20))
            sel = _sample_rows(queries.shape[0], rng, 12, query_labels)
            ids = search_ids(idx, base, queries[sel], 120, 40, Metric.EUCLIDEAN)
            rels = [label_relevance(query_labels[q], row, base_labels) for q, row in zip(sel, ids)]
            assert run["query_count"] == 12
            assert run["map"] == mean_average_precision(rels)
        values = [run["map"] for run in report["per_run"]]
        assert 0 < report["map_value"] < 1
        assert report["map_value"] == float(np.mean(values))

    def test_map_report_is_byte_deterministic(self, noisy, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_ok(self.map_argv(noisy, "--out", str(a)))
        run_ok(self.map_argv(noisy, "--out", str(b)))
        assert a.read_bytes() == b.read_bytes()


class TestVariantPaths:
    def test_nearest_variant(self, workdir, tmp_path, capsys):
        idx = tmp_path / "n.mkmi"
        run_ok(
            [
                "index", "--codebook", str(workdir / "cb.mkmc"),
                "--base", str(workdir / "base.fvecs"),
                "--variant", "n", "--n", "4", "--out", str(idx),
            ]
        )
        capsys.readouterr()
        run_ok(
            [
                "eval", "--index", str(idx),
                "--base", str(workdir / "base.fvecs"),
                "--queries", str(workdir / "queries.fvecs"),
                "--gt", str(workdir / "groundtruth.ivecs"),
                "--recall-at", "1", "--shortlist", "240",
            ]
        )
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["variant"] == "n"
        assert report["recall_at"]["1"] >= 0.9

    def test_dual_variants(self, workdir, tmp_path, capsys):
        cb2 = tmp_path / "cb2.mkm2"
        run_ok(
            [
                "train", "--learning", str(workdir / "learning.fvecs"),
                "--variant", "n2", "--k", "16", "--seed", "5", "--out", str(cb2),
            ]
        )
        idx = tmp_path / "n2.mkmi"
        run_ok(
            [
                "index", "--codebook", str(cb2), "--base", str(workdir / "base.fvecs"),
                "--variant", "n2", "--n", "4", "--out", str(idx),
            ]
        )
        capsys.readouterr()
        run_ok(
            [
                "eval", "--index", str(idx),
                "--base", str(workdir / "base.fvecs"),
                "--queries", str(workdir / "queries.fvecs"),
                "--gt", str(workdir / "groundtruth.ivecs"),
                "--recall-at", "1", "--shortlist", "240",
            ]
        )
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["variant"] == "n2"
        assert report["config"]["code_length"] == 16
        assert report["recall_at"]["1"] >= 0.9

    def test_geometric_mean_flag(self, workdir, tmp_path, capsys):
        idx = tmp_path / "geom.mkmi"
        run_ok(
            [
                "index", "--codebook", str(workdir / "cb.mkmc"),
                "--base", str(workdir / "base.fvecs"),
                "--variant", "t", "--mean", "geom", "--out", str(idx),
            ]
        )
        capsys.readouterr()
        run_ok(
            [
                "eval", "--index", str(idx),
                "--base", str(workdir / "base.fvecs"),
                "--queries", str(workdir / "queries.fvecs"),
                "--gt", str(workdir / "groundtruth.ivecs"),
                "--recall-at", "1", "--shortlist", "240",
            ]
        )
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["mean"] == "geom"


class TestFlagPairings:
    def test_threshold_variant_rejects_n(self, workdir, tmp_path):
        code = main(
            [
                "index", "--codebook", str(workdir / "cb.mkmc"),
                "--base", str(workdir / "base.fvecs"),
                "--variant", "t", "--n", "4", "--out", str(tmp_path / "x.mkmi"),
            ]
        )
        assert code == 2

    def test_nearest_variant_rejects_mean(self, workdir, tmp_path):
        code = main(
            [
                "index", "--codebook", str(workdir / "cb.mkmc"),
                "--base", str(workdir / "base.fvecs"),
                "--variant", "n", "--n", "4", "--mean", "geom",
                "--out", str(tmp_path / "x.mkmi"),
            ]
        )
        assert code == 2

    def test_nearest_variant_requires_n(self, workdir, tmp_path):
        code = main(
            [
                "index", "--codebook", str(workdir / "cb.mkmc"),
                "--base", str(workdir / "base.fvecs"),
                "--variant", "n", "--out", str(tmp_path / "x.mkmi"),
            ]
        )
        assert code == 2

    def test_n2_rejects_odd_n(self, workdir, tmp_path):
        code = main(
            [
                "train", "--learning", str(workdir / "learning.fvecs"),
                "--variant", "n2", "--k", "16", "--out", str(tmp_path / "cb.mkm2"),
            ]
        )
        assert code == 0
        code = main(
            [
                "index", "--codebook", str(tmp_path / "cb.mkm2"),
                "--base", str(workdir / "base.fvecs"),
                "--variant", "n2", "--n", "3", "--out", str(tmp_path / "x.mkmi"),
            ]
        )
        assert code == 2

    def test_dual_variant_with_single_codebook(self, workdir, tmp_path):
        code = main(
            [
                "index", "--codebook", str(workdir / "cb.mkmc"),
                "--base", str(workdir / "base.fvecs"),
                "--variant", "t2", "--out", str(tmp_path / "x.mkmi"),
            ]
        )
        assert code == 2

    def test_odd_k_for_dual_training(self, workdir, tmp_path):
        code = main(
            [
                "train", "--learning", str(workdir / "learning.fvecs"),
                "--variant", "t2", "--k", "15", "--out", str(tmp_path / "cb.mkm2"),
            ]
        )
        assert code == 2


class TestErrorExits:
    def test_missing_required_flag(self, capsys):
        assert main(["train", "--k", "16"]) == 2

    def test_nonexistent_input_file(self, tmp_path):
        code = main(
            [
                "train", "--learning", str(tmp_path / "missing.fvecs"),
                "--variant", "t", "--k", "8", "--out", str(tmp_path / "cb.mkmc"),
            ]
        )
        assert code == 3

    def test_corrupt_index(self, workdir, tmp_path):
        bad = tmp_path / "bad.mkmi"
        bad.write_bytes(b"MKMI" + b"\x00" * 10)
        code = main(
            [
                "query", "--index", str(bad),
                "--base", str(workdir / "base.fvecs"),
                "--query-file", str(workdir / "queries.fvecs"),
            ]
        )
        assert code == 3

    def test_index_count_beyond_file_exits_3(self, workdir, tmp_path):
        # a header declaring 2**40 codes must not turn into a 2**43-byte read
        blob = bytearray((workdir / "t.mkmi").read_bytes())
        blob[12:20] = struct.pack("<Q", 2**40)
        bad = tmp_path / "huge.mkmi"
        bad.write_bytes(bytes(blob))
        code = main(
            [
                "query", "--index", str(bad),
                "--base", str(workdir / "base.fvecs"),
                "--query-file", str(workdir / "queries.fvecs"),
            ]
        )
        assert code == 3

    def test_codebook_shape_beyond_file_exits_3(self, workdir, tmp_path):
        # k = dim = 2**31 declares a 2**64-byte centroid payload
        blob = bytearray((workdir / "cb.mkmc").read_bytes())
        blob[8:16] = struct.pack("<II", 2**31, 2**31)
        bad = tmp_path / "huge.mkmc"
        bad.write_bytes(bytes(blob))
        code = main(
            [
                "index", "--codebook", str(bad), "--base", str(workdir / "base.fvecs"),
                "--variant", "t", "--out", str(tmp_path / "x.mkmi"),
            ]
        )
        assert code == 3

    def test_dimension_mismatch(self, workdir, tmp_path):
        other = tmp_path / "narrow"
        run_ok(
            [
                "gen", "--out-dir", str(other), "--clusters", "4", "--per-cluster", "5",
                "--dim", "8", "--queries", "2", "--gt-depth", "1",
            ]
        )
        code = main(
            [
                "index", "--codebook", str(workdir / "cb.mkmc"),
                "--base", str(other / "base.fvecs"),
                "--variant", "t", "--out", str(tmp_path / "x.mkmi"),
            ]
        )
        assert code == 3


    @pytest.mark.parametrize("command", ["eval", "query"])
    def test_base_file_must_fit_index(self, workdir, tmp_path, capsys, command):
        base = read_vectors(workdir / "base.fvecs")
        if command == "eval":  # 100 rows for a 240-vector index
            write_vectors(tmp_path / "bad.fvecs", base[:100])
            want = "base file holds 100 vectors but index expects 240"
            argv = eval_argv(workdir, "--gt", str(workdir / "groundtruth.ivecs"))
        else:  # dimension 8 for a dimension-16 index
            write_vectors(tmp_path / "bad.fvecs", base[:, :8])
            want = "base file dimension 8 does not match index dimension 16"
            argv = query_argv(workdir)
        argv[argv.index("--base") + 1] = str(tmp_path / "bad.fvecs")
        assert main(argv) == 3
        assert want in capsys.readouterr().err


class TestConfigFile:
    def test_config_supplies_defaults(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "eval.cfg"
        cfg.write_text("recall_at = 1\nshortlist = 240\n# comment\n")
        run_ok(
            [
                "eval", "--config", str(cfg),
                "--index", str(workdir / "t.mkmi"),
                "--base", str(workdir / "base.fvecs"),
                "--queries", str(workdir / "queries.fvecs"),
                "--gt", str(workdir / "groundtruth.ivecs"),
            ]
        )
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["shortlist"] == 240
        assert report["config"]["recall_at"] == [1]

    def test_explicit_flag_wins(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "eval.cfg"
        cfg.write_text("shortlist = 240\n")
        run_ok(
            [
                "eval", "--config", str(cfg),
                "--index", str(workdir / "t.mkmi"),
                "--base", str(workdir / "base.fvecs"),
                "--queries", str(workdir / "queries.fvecs"),
                "--gt", str(workdir / "groundtruth.ivecs"),
                "--recall-at", "1", "--shortlist", "100",
            ]
        )
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["shortlist"] == 100

    def test_malformed_config_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not a pair\n")
        assert main(["eval", "--config", str(cfg)]) == 2

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["eval", "--config", str(tmp_path / "nope.cfg")]) == 2
