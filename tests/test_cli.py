import json
import re
import shlex
import struct
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import multikmeans.encoder as encoder_mod
from multikmeans import __version__
from multikmeans.cli import _sample_rows, build_parser, main
from multikmeans.core import Metric, derive_seed
from multikmeans.dataio import VectorReader, read_labels, read_vectors, write_vectors
from multikmeans.encoder import EncoderSpec, Variant, encode_many, load_quantizer
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


def readme_commands():
    """Each `multikmeans ...` line of README.md's ```sh blocks, with its
    backslash continuations joined and the shell loop's $s set to 1."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)
    lines = [line.strip() for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    return [line.replace("$s", "1") for line in lines if line.startswith("multikmeans ")]


@pytest.mark.parametrize("line", readme_commands(), ids=lambda line: line.split()[1])
def test_readme_example_parses(line):
    """A removed or renamed flag cannot linger in the README's examples."""
    args = build_parser().parse_args(shlex.split(line)[1:])
    assert args.command == shlex.split(line)[1]


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

    @pytest.mark.parametrize("flag", ["--spread", "--center-scale"])
    @pytest.mark.parametrize("value", ["inf", "1e308", "9e307"])
    def test_scale_beyond_float32_exits_2(self, tmp_path, capsys, flag, value):
        argv = ["gen", "--out-dir", str(tmp_path), "--clusters", "2", "--per-cluster", "2", "--dim", "2"]
        assert main(argv + [f"{flag}={value}"]) == 2
        assert "must be positive and at most 3.402823e+38" in capsys.readouterr().err
        assert not (tmp_path / "base.fvecs").exists()

    def test_draw_beyond_float32_exits_3(self, tmp_path, capsys):
        # each scale fits float32, but a center plus its noise may not
        argv = ["gen", "--out-dir", str(tmp_path), "--clusters", "2", "--per-cluster", "2", "--dim", "2"]
        with np.errstate(over="ignore"):
            assert main(argv + ["--spread=3e38", "--center-scale=3e38"]) == 3
        assert "non-finite" in capsys.readouterr().err


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    run_ok(["gen", "--out-dir", str(root), "--clusters", "2", "--per-cluster", "2", "--dim", "2", "--queries", "2"])
    return root


class TestFloatFlagSweep:
    """Every float flag ends in exit 0, 2 or 3 with an error line, never a
    traceback. Values use --flag=value, as argparse reads -inf as an option."""

    @pytest.mark.parametrize("value", ["inf", "nan", "0", "-1", "1e308"])
    @pytest.mark.parametrize("flag", ["--spread", "--center-scale", "--tol"])
    def test_no_traceback(self, tiny, tmp_path, capsys, flag, value):
        if flag == "--tol":
            argv = [
                "train", "--learning", str(tiny / "learning.fvecs"), "--variant", "t", "--k", "2",
                "--max-iters", "3", "--out", str(tmp_path / "cb.mkmc"),
            ]
        else:
            argv = ["gen", "--out-dir", str(tmp_path), "--clusters", "2", "--per-cluster", "2", "--dim", "2"]
        code = main(argv + [f"{flag}={value}"])
        err = capsys.readouterr().err
        assert code in (0, 2, 3)
        assert "Traceback" not in err
        if code:
            assert err.startswith("error: ")


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

    @pytest.mark.parametrize("name", ["truth.bin", "truth.fvecs", "truth.bvecs"])
    def test_out_must_be_ivecs(self, tmp_path, capsys, name):
        # every reader picks the element kind from the suffix, so an id file
        # under another suffix could not be read back by eval --gt; the check
        # comes before any input is read
        out = tmp_path / name
        argv = ["gt", "--base", str(tmp_path / "missing.fvecs"), "--queries", str(tmp_path / "missing.fvecs"),
                "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"--out must end in .ivecs, the int32 id format, got '{out}'" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_out_suffix_in_any_case(self, workdir, tmp_path):
        out = tmp_path / "gt.IVECS"
        run_ok(
            [
                "gt", "--base", str(workdir / "base.fvecs"),
                "--queries", str(workdir / "queries.fvecs"),
                "--out", str(out), "--depth", "20",
            ]
        )
        assert out.read_bytes() == (workdir / "groundtruth.ivecs").read_bytes()
        run_ok(eval_argv(workdir, "--gt", str(out), "--recall-at", "1,10", "--shortlist", "240"))


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

    def test_sample_below_class_count_takes_the_first_classes(self, workdir, capsys):
        # 3 queries over 8 classes: one each from the 3 lowest labels, none
        # from the rest
        argv = eval_argv(
            workdir, "--mode", "map", "--base-labels", str(workdir / "base_labels.txt"),
            "--query-labels", str(workdir / "query_labels.txt"), "--shortlist", "240",
            "--seeds", "3,4", "--query-sample", "3",
        )
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "over 2 run(s)" in captured.err
        assert "Traceback" not in captured.err
        report = json.loads(captured.out)
        assert [run["query_count"] for run in report["per_run"]] == [3, 3]
        query_labels = read_labels(workdir / "query_labels.txt")
        for seed in (3, 4):
            rows = _sample_rows(24, np.random.default_rng(derive_seed(seed, 20)), 3, query_labels)
            assert sorted(query_labels[rows].tolist()) == [0, 1, 2]

    def test_label_outside_int64_exits_3(self, workdir, tmp_path, capsys):
        labels = tmp_path / "query_labels.txt"
        labels.write_text("99999999999999999999\n" + "0\n" * 23)
        argv = eval_argv(
            workdir, "--mode", "map", "--base-labels", str(workdir / "base_labels.txt"),
            "--query-labels", str(labels),
        )
        assert main(argv) == 3
        assert "line 1 label '99999999999999999999' is outside the int64 range" in capsys.readouterr().err

    def test_query_without_hit_scores_zero_without_warning(self, tmp_path):
        # tight clusters, cosine, a depth of 1: some queries rank a row of
        # another class first
        run_ok(
            [
                "gen", "--out-dir", str(tmp_path), "--clusters", "16", "--per-cluster", "15",
                "--dim", "16", "--spread", "0.15", "--queries", "32", "--learning", "64",
                "--gt-depth", "5", "--seed", "9",
            ]
        )
        cb, idx_path, out = tmp_path / "cb.mkm2", tmp_path / "n2.mkmi", tmp_path / "map.json"
        run_ok(["train", "--learning", str(tmp_path / "learning.fvecs"), "--variant", "n2",
                "--k", "16", "--seed", "9", "--out", str(cb)])
        run_ok(["index", "--codebook", str(cb), "--base", str(tmp_path / "base.fvecs"),
                "--variant", "n2", "--n", "4", "--out", str(idx_path)])
        argv = eval_argv(
            tmp_path, "--mode", "map", "--base-labels", str(tmp_path / "base_labels.txt"),
            "--query-labels", str(tmp_path / "query_labels.txt"), "--map-depth", "1",
            "--shortlist", "30", "--metric", "cosine", "--out", str(out), index="n2.mkmi",
        )
        # a subprocess, so a warning reaches stderr instead of pytest's recorder
        proc = subprocess.run([sys.executable, "-m", "multikmeans", *argv], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "Warning" not in proc.stderr
        report = json.loads(out.read_text())
        base_labels = read_labels(tmp_path / "base_labels.txt")
        query_labels = read_labels(tmp_path / "query_labels.txt")
        ids = search_ids(load_index(idx_path), read_vectors(tmp_path / "base.fvecs"),
                         read_vectors(tmp_path / "queries.fvecs"), 30, 1, Metric.COSINE)
        rels = [label_relevance(label, row, base_labels) for label, row in zip(query_labels, ids)]
        assert any(not rel.any() for rel in rels)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            want = mean_average_precision(rels)
        assert report["per_run"][0]["map"] == report["map_value"] == want < 1

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


@pytest.fixture(scope="module")
def bad_inputs(workdir, tmp_path_factory):
    """Inputs that each fail one check: a dual codebook, a float ground
    truth file, a query label file one label short, a config line with no
    value and a config that sets the removed batch_size."""
    root = tmp_path_factory.mktemp("bad_inputs")
    run_ok(
        [
            "train", "--learning", str(workdir / "learning.fvecs"), "--variant", "t2",
            "--k", "8", "--out", str(root / "cb.mkm2"),
        ]
    )
    write_vectors(root / "gt.fvecs", read_vectors(workdir / "groundtruth.ivecs").astype(np.float32))
    lines = (workdir / "query_labels.txt").read_text().splitlines()
    (root / "short_labels.txt").write_text("\n".join(lines[:-1]) + "\n")
    (root / "empty_value.cfg").write_text("seed =\n")
    (root / "batch.cfg").write_text("batch_size = 64\n")
    return root


def index_argv(workdir, *extra):
    return [
        "index", "--codebook", str(workdir / "cb.mkmc"),
        "--base", str(workdir / "base.fvecs"), *extra,
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
            (("@query", "--query-row", "-1"), 2, "--query-row -1 outside [0, 24)"),
            (("@query", "--query-row", "24"), 2, "--query-row 24 outside [0, 24)"),
            (("@query", "--shortlist", "5", "--top", "10"), 0, "note: top clamped to shortlist size 5"),
            (("@eval", "@gt", "--seeds=-1"), 2, "--seeds must fit in an unsigned 64-bit integer, got -1"),
            (("@eval", "@gt", "--seeds", "x"), 2, "--seeds must be a comma-separated list of integers, got 'x'"),
            (("@eval", "@gt", "--seeds", ","), 2, "--seeds must list at least one integer"),
            (("@eval", "--gt", "@float_gt"), 3, "does not hold integer neighbor ids"),
            (("@eval", "@map", "--query-labels", "@short_labels"), 3, "23 query labels for 24 queries"),
            (("train", "--learning", "@learning", "--variant", "t", "--k", "1", "--out", "@out"), 2,
             "--k must be at least 2, got 1"),
            (("@index", "--codebook", "@dual", "--variant", "t", "--out", "@out"), 2,
             "variant t needs a single codebook file"),
            (("@index", "--variant", "n", "--n", "0", "--out", "@out"), 2,
             "--n too small: each codebook must set at least 1 bit"),
            (("@index", "--variant", "n", "--n", "17", "--out", "@out"), 2,
             "--n sets 17 bits per codebook but codebooks have k=16 centroids"),
            (("@index", "--variant", "t", "--batch-size", "64", "--out", "@out"), 2,
             "unrecognized arguments: --batch-size 64"),
            (("@index", "--variant", "t", "--config", "@batch_cfg", "--out", "@out"), 2,
             "unrecognized arguments: --batch-size 64"),
            (("gen", "--out-dir", "@out", "--config", "@empty_cfg"), 2, "line 1 is not `key = value`: 'seed ='"),
            (("eval", "--config"), 2, "--config needs a file path"),
            (("@eval", "@gt", "--mode", "speed"), 2, "argument --mode: invalid choice: 'speed'"),
        ],
        ids=[
            "sample-above-count", "class-too-small", "base-label-count", "recall-at-0",
            "no-depth-fits", "map-depth-0", "map-depth-clamped", "eval-check-order",
            "query-check-order", "query-row-negative", "query-row-at-count", "query-top-clamped",
            "seeds-negative", "seeds-not-int", "seeds-empty", "recall-float-gt", "map-query-label-count",
            "train-k-1", "index-t-dual-codebook", "index-n-0", "index-n-above-k", "index-batch-size",
            "index-batch-size-config", "config-empty-value", "config-last-token", "eval-mode-speed",
        ],
    )
    def test_exit_code_and_message(self, workdir, bad_inputs, tmp_path, capsys, tokens, code, message):
        odd = tmp_path / "odd_labels.txt"
        odd.write_text("7\n" + "0\n" * 23)  # one query of class 7
        expand = {
            "@eval": eval_argv(workdir),
            "@query": query_argv(workdir),
            "@index": index_argv(workdir),
            "@gt": ["--gt", str(workdir / "groundtruth.ivecs")],
            "@map": [
                "--mode", "map", "--base-labels", str(workdir / "base_labels.txt"),
                "--query-labels", str(workdir / "query_labels.txt"),
            ],
            "@odd": [str(odd)],
            "@qlabels": [str(workdir / "query_labels.txt")],
            "@missing": [str(tmp_path / "missing.mkmi")],
            "@learning": [str(workdir / "learning.fvecs")],
            "@dual": [str(bad_inputs / "cb.mkm2")],
            "@float_gt": [str(bad_inputs / "gt.fvecs")],
            "@short_labels": [str(bad_inputs / "short_labels.txt")],
            "@empty_cfg": [str(bad_inputs / "empty_value.cfg")],
            "@batch_cfg": [str(bad_inputs / "batch.cfg")],
            "@out": [str(tmp_path / "out")],
        }
        argv = [arg for tok in tokens for arg in expand.get(tok, [tok])]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


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


GOLDEN = Path(__file__).parent / "golden"
NINE_SEEDS = "1,2,3,4,5,6,7,8,9"


@pytest.fixture(scope="module")
def spread(tmp_path_factory):
    """A --spread 0.6 set under an n2 index, so rates differ from run to run."""
    root = tmp_path_factory.mktemp("spread")
    run_ok(
        [
            "gen", "--out-dir", str(root), "--clusters", "6", "--per-cluster", "40",
            "--dim", "16", "--spread", "0.6", "--queries", "30", "--learning", "64",
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
    return root


class TestEvalGolden:
    """Fixed-seed eval output, byte for byte, less the timing line.

    Nine runs put each cross-run mean and spread past numpy's 8-way
    unrolled sum, so summing the runs in another order (an axis-0 mean over
    a runs x depths array, say) changes the last bits of recall_at_std.
    Recall ranks by cosine against the Euclidean ground truth so that it
    grows with R: under one metric the exact re-rank puts a shortlisted
    true neighbour first, and every depth reads the same. Relative paths
    keep the report's config free of temporary directories.
    """

    @pytest.mark.parametrize(
        "name, extra",
        [
            ("recall_9", ("--gt", "groundtruth.ivecs", "--metric", "cosine", "--recall-at", "1,5,10",
                          "--shortlist", "20", "--seeds", NINE_SEEDS, "--query-sample", "10")),
            ("recall_1", ("--gt", "groundtruth.ivecs", "--metric", "cosine", "--recall-at", "1,5,10",
                          "--shortlist", "20")),
            ("map_9", ("--mode", "map", "--base-labels", "base_labels.txt", "--query-labels", "query_labels.txt",
                       "--metric", "cosine", "--map-depth", "40", "--shortlist", "120",
                       "--seeds", NINE_SEEDS, "--query-sample", "12")),
        ],
    )
    def test_report_matches_golden(self, spread, monkeypatch, capsys, name, extra):
        monkeypatch.chdir(spread)
        run_ok(["eval", "--index", "n2.mkmi", "--base", "base.fvecs", "--queries", "queries.fvecs", *extra])
        out, err = capsys.readouterr()
        err, timings = re.subn(r"^evaluated \d+ run\(s\) in [0-9.]+s\n", "", err, flags=re.M)
        assert timings == 1
        assert out == (GOLDEN / f"eval_{name}.json").read_text(encoding="utf-8")
        assert err == (GOLDEN / f"eval_{name}.stderr").read_text(encoding="utf-8")
        report = json.loads(out)
        if report["mode"] == "recall":
            for rates in [report["recall_at"]] + [run["recall_at"] for run in report["per_run"]]:
                ordered = [rates[str(r)] for r in report["config"]["recall_at"]]
                assert ordered == sorted(ordered)  # non-decreasing in R
            assert report["map_value"] is None and report["map_std"] is None
            assert ("(std)" in err) == (report["runs_averaged"] > 1)
        else:
            assert report["recall_at"] is None and report["recall_at_std"] is None


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


class TestIndexBlocks:
    def test_blocked_index_matches_one_encode_many(self, workdir, tmp_path):
        """index reads the base in encode blocks; with 100 rows per block
        the 240 rows take three reads, the last one ragged, and the codes
        are those of one encode_many call over the whole file."""
        cb = load_quantizer(workdir / "cb.mkmc")
        reads = []
        read = VectorReader.read

        def counted(self, start, count):
            reads.append(count)
            return read(self, start, count)

        with mock.patch.object(encoder_mod, "_BLOCK_ELEMENTS", 100 * 16):
            with mock.patch.object(VectorReader, "read", counted):
                run_ok(index_argv(workdir, "--variant", "t", "--out", str(tmp_path / "t.mkmi")))
            want = encode_many(read_vectors(workdir / "base.fvecs"), cb, EncoderSpec(Variant.T))
        assert reads == [100, 100, 40]
        assert load_index(tmp_path / "t.mkmi").codes.tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("variant", ["t2", "n2"])
    def test_dual_training_needs_two_centroids_per_codebook(self, workdir, tmp_path, capsys, variant):
        code = main(
            [
                "train", "--learning", str(workdir / "learning.fvecs"),
                "--variant", variant, "--k", "2", "--out", str(tmp_path / "cb.mkm2"),
            ]
        )
        assert code == 2
        assert f"variant {variant} needs an even --k of at least 4 (2 per codebook), got 2" in capsys.readouterr().err
        assert not (tmp_path / "cb.mkm2").exists()

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_tol_must_be_non_negative(self, workdir, tmp_path, capsys, tol):
        code = main(
            [
                "train", "--learning", str(workdir / "learning.fvecs"), "--variant", "t",
                "--k", "8", "--tol", tol, "--out", str(tmp_path / "cb.mkmc"),
            ]
        )
        assert code == 2
        assert "--tol must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "cb.mkmc").exists()


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

    def test_unallocatable_dataset_exits_3(self, tmp_path, capsys):
        # 2e17 points: numpy refuses the 1.39 EiB request at once, beyond
        # any address space, so nothing is allocated or written
        out = tmp_path / "huge"
        code = main(
            [
                "gen", "--out-dir", str(out), "--clusters", "2",
                "--per-cluster", "100000000000000000", "--dim", "2",
            ]
        )
        assert code == 3
        assert "Unable to allocate" in capsys.readouterr().err
        assert not out.exists()

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

    def test_config_equals_form(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "eval.cfg"
        cfg.write_text("recall_at = 1\n")
        run_ok(eval_argv(workdir, f"--config={cfg}", "--gt", str(workdir / "groundtruth.ivecs")))
        assert json.loads(capsys.readouterr().out)["config"]["recall_at"] == [1]

    def test_malformed_config_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not a pair\n")
        assert main(["eval", "--config", str(cfg)]) == 2

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["eval", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"seed = 1\n\xff\xfe bad\n")
        assert main(["gen", "--out-dir", str(tmp_path / "g"), "--config", str(cfg)]) == 2
        assert f"error: cannot read config file {cfg}" in capsys.readouterr().err
        assert not (tmp_path / "g").exists()
