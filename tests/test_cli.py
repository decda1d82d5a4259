import json
import os
import subprocess
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

import poirec
from poirec import checkpoint, cli, training
from poirec.cli import build_parser, main
from poirec.data import save_split
from synth import markov_dataset

TINY = ["--d", "8", "--t-max", "20", "--m-bins", "4", "--degree-buckets", "4",
        "--batch-size", "8", "--n-neighbors", "5", "--walks-per-node", "2",
        "--walk-len", "6", "--n2v-epochs", "1", "--correlation-top", "5"]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("split")
    save_split(markov_dataset(n_pois=12, n_traj=25, traj_len=5, seed=2), d)
    return d


def write_raw_log(path, n_users=12, n_pois=12, seq_len=5):
    """Foursquare-style log where every user visits every POI once."""
    t0 = datetime(2012, 4, 3, 12, 0, 0, tzinfo=timezone.utc)
    lines = []
    for u in range(n_users):
        for i in range(n_pois):
            ts = (t0 + timedelta(days=u, hours=i)).strftime("%a %b %d %H:%M:%S %z %Y")
            lines.append(f"user{u}\tvenue{i}\tcat{i % 3}\tCategory {i % 3}"
                         f"\t{40.0 + 0.01 * i}\t{-74.0 + 0.01 * i}\t0\t{ts}")
    path.write_text("\n".join(lines) + "\n")


class TestParser:
    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for cmd in ("preprocess", "build-graphs", "pretrain", "train",
                    "evaluate", "sweep", "augment-debug"):
            assert cmd in out

    def test_train_help_lists_config_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["train", "--help"])
        out = capsys.readouterr().out
        for flag in ("--lam", "--beta", "--from-scratch", "--batch-size"):
            assert flag in out

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", "x", "--out", "y", "--no-such-flag"])
        assert exc.value.code == 2


class TestPreprocess:
    def test_produces_split_files(self, tmp_path, capsys):
        raw = tmp_path / "raw.tsv"
        write_raw_log(raw)
        out = tmp_path / "out"
        code = main(["preprocess", "--input", str(raw), "--format", "foursquare",
                     "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "parsed: 144 check-ins, 12 users, 12 POIs, 0 malformed" in printed
        for name in ("catalog.jsonl", "trajectories.jsonl", "manifest.json"):
            assert (out / name).is_file()

    def test_deterministic_output_bytes(self, tmp_path):
        raw = tmp_path / "raw.tsv"
        write_raw_log(raw)
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["preprocess", "--input", str(raw), "--format",
                         "foursquare", "--out", str(out)]) == 0
            blobs.append((out / "trajectories.jsonl").read_bytes())
        assert blobs[0] == blobs[1]

    def test_filters_apply(self, tmp_path, capsys):
        raw = tmp_path / "raw.tsv"
        write_raw_log(raw, n_users=12, n_pois=12)
        out = tmp_path / "out"
        main(["preprocess", "--input", str(raw), "--format", "foursquare",
              "--out", str(out), "--min-user-visits", "20"])
        printed = capsys.readouterr().out
        assert "after filtering: 0 users" in printed

    @staticmethod
    def preprocess(tmp_path, capsys, *flags):
        """Preprocess the 12-user log (one 12-check-in session per user) with
        `flags`; returns the summary line and the longest record length."""
        raw = tmp_path / "raw.tsv"
        write_raw_log(raw)
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["preprocess", "--input", str(raw), "--format", "foursquare",
                     "--out", str(out)] + [str(f) for f in flags]) == 0
        summary = capsys.readouterr().out.splitlines()[-1]
        records = [json.loads(l) for l in (out / "trajectories.jsonl").read_text().splitlines()]
        return summary, max(len(r["checkins"]) + ("target" in r) for r in records)

    def test_config_file_and_gap_hours_flag(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("gap_hours = 0.5\n")
        # check-ins an hour apart: each is its own session under a 0.5 h gap
        summary, longest = self.preprocess(tmp_path, capsys, "--config", cfg)
        assert "144 train trajectories, 0 val pairs, 0 test pairs" in summary
        assert longest == 1
        summary, longest = self.preprocess(tmp_path, capsys, "--config", cfg,
                                           "--gap-hours", "48")
        assert "12 train trajectories, 12 val pairs, 12 test pairs" in summary
        assert longest == 12

    def test_t_max_truncates_sessions(self, tmp_path, capsys):
        assert self.preprocess(tmp_path, capsys, "--t-max", "8")[1] == 8

    def test_one_config_file_drives_preprocess_and_train(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("t_max = 8\nd = 8\nm_bins = 4\ndegree_buckets = 4\n"
                       "batch_size = 8\nn_neighbors = 5\ncorrelation_top = 5\n"
                       "epochs = 1\nlam = 0.0\nfrom_scratch = true\n")
        # 12-check-in sessions, cut to 8 so every position fits the table
        assert self.preprocess(tmp_path, capsys, "--config", cfg)[1] == 8
        assert main(["train", "--data", str(tmp_path / "out"), "--out",
                     str(tmp_path / "run"), "--config", str(cfg)]) == 0

    @pytest.mark.parametrize("flag", ["--min-visits", "--max-len"])
    def test_old_preprocess_flags_are_usage_errors(self, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            main(["preprocess", "--input", str(tmp_path / "raw.tsv"), "--format",
                  "foursquare", "--out", str(tmp_path / "out"), flag, "20"])
        assert exc.value.code == 2

    def test_missing_input_exit_3(self, tmp_path, capsys):
        code = main(["preprocess", "--input", str(tmp_path / "nope.tsv"),
                     "--format", "gowalla", "--out", str(tmp_path / "o")])
        assert code == 3
        assert "error:" in capsys.readouterr().err


class TestGraphAndPretrain:
    def test_build_graphs(self, data_dir, tmp_path, capsys):
        out = tmp_path / "graphs"
        code = main(["build-graphs", "--data", str(data_dir), "--out", str(out),
                     "--n-neighbors", "5"])
        assert code == 0
        head = (out / "global_temporal.edges").read_text().splitlines()[0]
        assert head.startswith("temporal ")
        assert (out / "global_spatial.edges").is_file()

    def test_pretrain_writes_three_tables(self, data_dir, tmp_path, capsys):
        out = tmp_path / "emb"
        code = main(["pretrain", "--data", str(data_dir), "--out", str(out)] + TINY)
        assert code == 0
        for name in ("spatial.emb", "temporal.emb", "fused.emb"):
            assert (out / name).is_file()
        assert "pretrained 12 POI embeddings, d=8" in capsys.readouterr().out


class TestTrainEvaluate:
    def test_train_requires_embeddings_or_from_scratch(self, data_dir, tmp_path,
                                                       capsys):
        code = main(["train", "--data", str(data_dir),
                     "--out", str(tmp_path / "run")] + TINY)
        assert code == 3
        assert "from-scratch" in capsys.readouterr().err

    def test_full_pipeline_runs(self, data_dir, tmp_path, capsys):
        emb = tmp_path / "emb"
        assert main(["pretrain", "--data", str(data_dir), "--out", str(emb)]
                    + TINY) == 0
        run = tmp_path / "run"
        code = main(["train", "--data", str(data_dir), "--out", str(run),
                     "--embeddings", str(emb), "--epochs", "2", "--lam", "0.0"]
                    + TINY)
        assert code == 0
        assert (run / "checkpoint.bin").is_file()
        reports = [json.loads(l) for l in
                   (run / "report.jsonl").read_text().splitlines()]
        assert [r["epoch"] for r in reports] == [1, 2]

        code = main(["evaluate", "--data", str(data_dir),
                     "--checkpoint", str(run / "checkpoint.bin")])
        assert code == 0
        out = capsys.readouterr().out
        assert "HR@K" in out and "split=test" in out

        # resume with the same epoch budget: nothing left to do, still ok
        code = main(["train", "--data", str(data_dir), "--out", str(run),
                     "--embeddings", str(emb), "--epochs", "2", "--lam", "0.0",
                     "--resume"] + TINY)
        assert code == 0
        assert "resumed from epoch 2" in capsys.readouterr().out

    @pytest.mark.parametrize("n_pois", [10, 14])
    def test_tables_of_another_catalog_exit_3(self, data_dir, tmp_path, capsys, n_pois):
        # 10: the tables miss catalog POIs; 14: they hold unknown ones
        other = tmp_path / "other"
        save_split(markov_dataset(n_pois=n_pois, n_traj=25, traj_len=5, seed=2), other)
        emb = tmp_path / "emb"
        assert main(["pretrain", "--data", str(other), "--out", str(emb)] + TINY) == 0
        capsys.readouterr()
        code = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "run"),
                     "--embeddings", str(emb), "--epochs", "1", "--lam", "0.0"] + TINY)
        assert code == 3
        assert "embedding table does not match the catalog" in capsys.readouterr().err

    def test_tables_of_another_width_exit_3(self, data_dir, tmp_path, capsys):
        emb = tmp_path / "emb"
        assert main(["pretrain", "--data", str(data_dir), "--out", str(emb)]
                    + TINY + ["--d", "4"]) == 0
        capsys.readouterr()
        code = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "run"),
                     "--embeddings", str(emb), "--epochs", "1", "--lam", "0.0"] + TINY)
        assert code == 3
        err = capsys.readouterr().err
        assert "embedding table has width 4, but the model width d is 8" in err

    def test_truncated_table_exit_3(self, data_dir, tmp_path, capsys):
        emb = tmp_path / "emb"
        assert main(["pretrain", "--data", str(data_dir), "--out", str(emb)] + TINY) == 0
        (emb / "fused.emb").write_bytes((emb / "fused.emb").read_bytes()[:-1])
        code = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "run"),
                     "--embeddings", str(emb), "--epochs", "1", "--lam", "0.0"] + TINY)
        assert code == 3
        assert "fused.emb" in capsys.readouterr().err

    def test_checkpoint_of_another_catalog_exit_3(self, data_dir, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["train", "--data", str(data_dir), "--out", str(run),
                     "--from-scratch", "--epochs", "1", "--lam", "0.0"] + TINY) == 0
        other = tmp_path / "other"
        save_split(markov_dataset(n_pois=14, n_traj=25, traj_len=5, seed=2), other)
        capsys.readouterr()
        code = main(["evaluate", "--data", str(other),
                     "--checkpoint", str(run / "checkpoint.bin")])
        assert code == 3
        assert "checkpoint tensor param.poi_table has shape (12, 8)" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        ([], "was trained with lam=0.7, but this run has lam=0.1"),
        (["--lam", "0.7", "--seed", "3"], "was trained with seed=0, but this run has seed=3"),
    ], ids=["lam-dropped", "seed-changed"])
    def test_resume_with_changed_config_exit_3(self, data_dir, tmp_path, capsys, flags,
                                               message):
        run = tmp_path / "run"
        assert main(["train", "--data", str(data_dir), "--out", str(run), "--from-scratch",
                     "--epochs", "1", "--lam", "0.7"] + TINY) == 0
        saved = (run / "checkpoint.bin").read_bytes()
        capsys.readouterr()
        code = main(["train", "--data", str(data_dir), "--out", str(run), "--from-scratch",
                     "--epochs", "2", "--resume"] + flags + TINY)
        assert code == 3
        err = capsys.readouterr().err
        assert f"checkpoint {run / 'checkpoint.bin'} {message}" in err
        assert "may change only epochs and patience" in err
        assert (run / "checkpoint.bin").read_bytes() == saved

    def test_resume_with_more_epochs(self, data_dir, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["train", "--data", str(data_dir), "--out", str(run), "--from-scratch",
                     "--epochs", "1", "--lam", "0.7"] + TINY) == 0
        capsys.readouterr()
        assert main(["train", "--data", str(data_dir), "--out", str(run), "--from-scratch",
                     "--epochs", "3", "--patience", "9", "--lam", "0.7", "--resume"]
                    + TINY) == 0
        assert "resumed from epoch 1" in capsys.readouterr().out
        reports = [json.loads(line) for line in (run / "report.jsonl").read_text().splitlines()]
        assert [r["epoch"] for r in reports] == [1, 2, 3]

    @staticmethod
    def trained_run(data_dir, run, capsys):
        assert main(["train", "--data", str(data_dir), "--out", str(run),
                     "--from-scratch", "--epochs", "1", "--lam", "0.0"] + TINY) == 0
        capsys.readouterr()
        return run / "checkpoint.bin"

    @staticmethod
    def run_on_checkpoint(command, data_dir, ckpt):
        """Exit code of `poirec evaluate` on the checkpoint `ckpt` of
        `trained_run`, or of resuming that run for one more epoch."""
        if command == "evaluate":
            return main(["evaluate", "--data", str(data_dir), "--checkpoint", str(ckpt)])
        return main(["train", "--data", str(data_dir), "--out", str(ckpt.parent),
                     "--from-scratch", "--epochs", "2", "--lam", "0.0", "--resume"] + TINY)

    @pytest.mark.parametrize("command", ["evaluate", "resume"])
    def test_version_1_checkpoint_exit_3(self, data_dir, tmp_path, capsys, monkeypatch,
                                         command):
        ckpt = self.trained_run(data_dir, tmp_path / "run", capsys)
        # rewrite it as the version-1 format did: the spd_cap key, and a
        # b_spd of hop rows 0-5 plus the master row, with its Adam moments
        arrays, meta = checkpoint.load_checkpoint(ckpt)
        meta["config"]["spd_cap"] = 5
        for name in ("param.b_spd", "adam.m.b_spd", "adam.v.b_spd"):
            arrays[name] = np.insert(arrays[name], [3] * 3, 0.0, axis=0)
        monkeypatch.setattr(checkpoint, "VERSION", 1)
        checkpoint.save_checkpoint(ckpt, arrays, meta)
        monkeypatch.undo()
        assert self.run_on_checkpoint(command, data_dir, ckpt) == 3
        assert "format version 1, this build reads version 2" in capsys.readouterr().err

    @pytest.mark.parametrize("change, message", [
        ("add", "has an unknown config key 'bogus'"),
        ("drop", "has no config key 'lam'"),
    ], ids=["unknown-key", "missing-key"])
    def test_checkpoint_config_keys_exit_3(self, data_dir, tmp_path, capsys, monkeypatch,
                                           change, message):
        ckpt = self.trained_run(data_dir, tmp_path / "run", capsys)
        arrays, meta = checkpoint.load_checkpoint(ckpt)
        if change == "add":
            meta["config"]["bogus"] = 1
        else:
            del meta["config"]["lam"]
        checkpoint.save_checkpoint(ckpt, arrays, meta)
        monkeypatch.setattr(training.Trainer, "__init__", None)  # refused before any Trainer
        code = main(["evaluate", "--data", str(data_dir), "--checkpoint", str(ckpt)])
        assert code == 3
        assert f"checkpoint {ckpt} {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, types", [
        ("m_bins", 4.0, "float, but RunConfig.m_bins is int"),
        ("d", "8", "str, but RunConfig.d is int"),
        ("d", True, "bool, but RunConfig.d is int"),
        ("lam", "0.5", "str, but RunConfig.lam is float"),
        ("lam", False, "bool, but RunConfig.lam is float"),
        ("use_category_bias", "yes", "str, but RunConfig.use_category_bias is bool"),
        ("use_category_bias", 1, "int, but RunConfig.use_category_bias is bool"),
        ("seed", 0.5, "float, but RunConfig.seed is int"),
    ])
    def test_checkpoint_config_value_types_exit_3(self, data_dir, tmp_path, capsys,
                                                  monkeypatch, key, value, types):
        ckpt = self.trained_run(data_dir, tmp_path / "run", capsys)
        arrays, meta = checkpoint.load_checkpoint(ckpt)
        meta["config"][key] = value
        checkpoint.save_checkpoint(ckpt, arrays, meta)
        monkeypatch.setattr(training.Trainer, "__init__", None)  # refused before any Trainer
        code = main(["evaluate", "--data", str(data_dir), "--checkpoint", str(ckpt)])
        assert code == 3
        assert f"checkpoint {ckpt} has config key {key!r} of type {types}" in \
            capsys.readouterr().err

    def test_checkpoint_config_value_out_of_range_exit_3(self, data_dir, tmp_path, capsys,
                                                         monkeypatch):
        ckpt = self.trained_run(data_dir, tmp_path / "run", capsys)
        arrays, meta = checkpoint.load_checkpoint(ckpt)
        meta["config"]["tau"] = 0
        checkpoint.save_checkpoint(ckpt, arrays, meta)
        monkeypatch.setattr(training.Trainer, "__init__", None)  # refused before any Trainer
        code = main(["evaluate", "--data", str(data_dir), "--checkpoint", str(ckpt)])
        assert code == 3
        assert f"checkpoint {ckpt} has config key 'tau' of value 0, outside its range (0, inf)" \
            in capsys.readouterr().err

    def test_checkpoint_float_key_takes_json_integer(self, data_dir, tmp_path, capsys):
        # JSON has one number type, so a float field may hold an integer
        ckpt = self.trained_run(data_dir, tmp_path / "run", capsys)
        arrays, meta = checkpoint.load_checkpoint(ckpt)
        meta["config"]["lam"] = 0
        checkpoint.save_checkpoint(ckpt, arrays, meta)
        assert main(["evaluate", "--data", str(data_dir), "--checkpoint", str(ckpt)]) == 0

    @pytest.mark.parametrize("command", ["evaluate", "resume"])
    @pytest.mark.parametrize("key", ["epoch", "adam_step", "best_hr", "bad_epochs",
                                     "aug_rng", "batch_rng"])
    def test_checkpoint_metadata_key_missing_exit_3(self, data_dir, tmp_path, capsys,
                                                    command, key):
        ckpt = self.trained_run(data_dir, tmp_path / "run", capsys)
        arrays, meta = checkpoint.load_checkpoint(ckpt)
        del meta[key]
        checkpoint.save_checkpoint(ckpt, arrays, meta)
        saved = ckpt.read_bytes()
        assert self.run_on_checkpoint(command, data_dir, ckpt) == 3
        assert f"error: checkpoint {ckpt} has no metadata key {key!r}" in \
            capsys.readouterr().err
        assert ckpt.read_bytes() == saved

    @pytest.mark.parametrize("command", ["evaluate", "resume"])
    @pytest.mark.parametrize("key, value, message", [
        ("epoch", "1", "of value '1', but it must be an integer >= 0"),
        ("epoch", -3, "of value -3, but it must be an integer >= 0"),
        ("adam_step", 1.5, "of value 1.5, but it must be an integer >= 0"),
        ("adam_step", -1, "of value -1, but it must be an integer >= 0"),
        ("bad_epochs", None, "of value None, but it must be an integer >= 0"),
        ("bad_epochs", True, "of value True, but it must be an integer >= 0"),
        ("best_hr", "x", "of value 'x', but it must be a number in [-1, 1]"),
        ("batch_rng", 7, "of value 7, but it must be a PCG64 bit generator state"),
        ("aug_rng", {}, "of value {}, but it must be a PCG64 bit generator state"),
        ("config", [], "of value [], but it must be an object of config keys"),
    ], ids=["epoch-str", "epoch-negative", "adam-step-float", "adam-step-negative",
            "bad-epochs-null", "bad-epochs-bool", "best-hr-str", "batch-rng-int",
            "aug-rng-empty", "config-list"])
    def test_checkpoint_metadata_value_exit_3(self, data_dir, tmp_path, capsys, command,
                                              key, value, message):
        ckpt = self.trained_run(data_dir, tmp_path / "run", capsys)
        arrays, meta = checkpoint.load_checkpoint(ckpt)
        meta[key] = value
        checkpoint.save_checkpoint(ckpt, arrays, meta)
        saved = ckpt.read_bytes()
        assert self.run_on_checkpoint(command, data_dir, ckpt) == 3
        assert f"error: checkpoint {ckpt} has metadata key {key!r} {message}" in \
            capsys.readouterr().err
        assert ckpt.read_bytes() == saved

    @pytest.mark.parametrize("command", ["evaluate", "resume"])
    def test_checkpoint_unknown_tensor_exit_3(self, data_dir, tmp_path, capsys, command):
        ckpt = self.trained_run(data_dir, tmp_path / "run", capsys)
        arrays, meta = checkpoint.load_checkpoint(ckpt)
        arrays["param.bogus"] = np.zeros(3, dtype=np.float32)
        checkpoint.save_checkpoint(ckpt, arrays, meta)
        saved = ckpt.read_bytes()
        assert self.run_on_checkpoint(command, data_dir, ckpt) == 3
        assert f"error: checkpoint {ckpt} has an unknown tensor param.bogus" in \
            capsys.readouterr().err
        assert ckpt.read_bytes() == saved

    def test_cut_checkpoint_exit_3(self, data_dir, tmp_path, capsys):
        ckpt = self.trained_run(data_dir, tmp_path / "run", capsys)
        ckpt.write_bytes(ckpt.read_bytes()[:6])
        code = main(["evaluate", "--data", str(data_dir), "--checkpoint", str(ckpt)])
        assert code == 3
        assert f"checkpoint {ckpt} is cut inside its header" in capsys.readouterr().err

    def test_evaluate_decodes_checkpoint_once(self, data_dir, tmp_path, capsys,
                                              monkeypatch):
        ckpt = self.trained_run(data_dir, tmp_path / "run", capsys)
        calls = []

        def counted(path):
            calls.append(path)
            return checkpoint.load_checkpoint(path)

        monkeypatch.setattr(training, "load_checkpoint", counted)
        assert main(["evaluate", "--data", str(data_dir), "--checkpoint", str(ckpt)]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("change, message", [
        ("drop", "record names POI 'p000', which is not in the catalog"),
        ("repeat", "catalog.jsonl:2: POI 'p000' is listed twice"),
    ])
    def test_catalog_not_matching_records_exit_3(self, data_dir, tmp_path, capsys,
                                                 change, message):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "trajectories.jsonl").write_bytes(
            (data_dir / "trajectories.jsonl").read_bytes())
        lines = (data_dir / "catalog.jsonl").read_text().splitlines(keepends=True)
        assert lines[0].startswith('["p000"')
        lines = lines[1:] if change == "drop" else lines[:1] + lines
        (bad / "catalog.jsonl").write_text("".join(lines))
        code = main(["train", "--data", str(bad), "--out", str(tmp_path / "run"),
                     "--from-scratch", "--epochs", "1"] + TINY)
        assert code == 3
        assert message in capsys.readouterr().err

    @staticmethod
    def edited_split(data_dir, out, name, at, record):
        """A copy of the split in `out` whose file `name` has `record`, as
        JSON, on line `at` (0-based)."""
        out.mkdir()
        for other in ("catalog.jsonl", "trajectories.jsonl"):
            (out / other).write_bytes((data_dir / other).read_bytes())
        lines = (out / name).read_text().splitlines(keepends=True)
        lines[at] = json.dumps(record) + "\n"
        (out / name).write_text("".join(lines))
        return out

    @pytest.mark.parametrize("kind, edit, message", [
        ("train", lambda rec: rec.pop("kind"), 'record has no "kind"'),
        ("val", lambda rec: rec.update(kind="valid"),
         "record has kind 'valid', not one of train, val, test"),
        ("val", lambda rec: rec.pop("target"), 'val record has no "target"'),
        ("train", lambda rec: rec.pop("user"), 'train record has no "user"'),
        ("test", lambda rec: rec.pop("checkins"), 'test record has no "checkins"'),
        ("train", lambda rec: rec.update(checkins={}), 'train record\'s "checkins" is not a list'),
        ("train", lambda rec: rec.update(checkins=[]), "train record has no check-ins"),
        ("val", lambda rec: rec.update(checkins=[]), "val record has no check-ins"),
        ("test", lambda rec: rec.update(checkins=[]), "test record has no check-ins"),
    ], ids=["no-kind", "unknown-kind", "no-target", "no-user", "no-checkins",
            "checkins-not-a-list", "empty-checkins-train", "empty-checkins-val",
            "empty-checkins-test"])
    def test_bad_trajectory_record_exit_3(self, data_dir, tmp_path, capsys, kind, edit,
                                          message):
        recs = [json.loads(line) for line in
                (data_dir / "trajectories.jsonl").read_text().splitlines()]
        at = next(i for i, rec in enumerate(recs) if rec["kind"] == kind)
        edit(recs[at])
        bad = self.edited_split(data_dir, tmp_path / "bad", "trajectories.jsonl", at, recs[at])
        code = main(["train", "--data", str(bad), "--out", str(tmp_path / "run"),
                     "--from-scratch", "--epochs", "1"] + TINY)
        assert code == 3
        assert (f"error: {bad / 'trajectories.jsonl'}:{at + 1}: {message}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("name, line, message", [
        ("trajectories.jsonl", '{"kind": "train",', "line is not JSON: "),
        ("trajectories.jsonl", '["train", "u1", []]',
         'record ["train", "u1", []] is not a JSON object'),
        ("catalog.jsonl", "p1, food, 40.0, -74.0", "line is not JSON: "),
        ("catalog.jsonl", '["p1", "food", 40.0]',
         'catalog row ["p1", "food", 40.0] is not a list of the 4 fields'),
    ], ids=["record-not-json", "record-not-an-object", "catalog-not-json",
            "catalog-three-fields"])
    def test_bad_split_line_exit_3(self, data_dir, tmp_path, capsys, name, line, message):
        bad = tmp_path / "bad"
        bad.mkdir()
        for other in ("catalog.jsonl", "trajectories.jsonl"):
            (bad / other).write_bytes((data_dir / other).read_bytes())
        lines = (bad / name).read_text().splitlines(keepends=True)
        lines[1] = line + "\n"
        (bad / name).write_text("".join(lines))
        code = main(["build-graphs", "--data", str(bad), "--out", str(tmp_path / "g")] + TINY)
        assert code == 3
        assert f"error: {bad / name}:2: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["train", "test"])
    @pytest.mark.parametrize("edit, message", [
        (lambda row: row[:5], "check-in row [{row}] is not a list of the 6 fields"),
        (lambda row: row[:4] + [123.0] + row[5:], "coordinates out of bounds: (123.0, "),
    ], ids=["row-one-field-short", "latitude-out-of-bounds"])
    def test_bad_checkin_row_exit_3(self, data_dir, tmp_path, capsys, kind, edit, message):
        recs = [json.loads(line) for line in
                (data_dir / "trajectories.jsonl").read_text().splitlines()]
        at = next(i for i, rec in enumerate(recs) if rec["kind"] == kind)
        row = recs[at]["checkins"][-1]
        recs[at]["checkins"][-1] = edit(row)
        bad = self.edited_split(data_dir, tmp_path / "bad", "trajectories.jsonl", at, recs[at])
        code = main(["train", "--data", str(bad), "--out", str(tmp_path / "run"),
                     "--from-scratch", "--epochs", "1"] + TINY)
        assert code == 3
        message = message.format(row=", ".join(map(json.dumps, row[:5])))
        assert (f"error: {bad / 'trajectories.jsonl'}:{at + 1}: {message}"
                in capsys.readouterr().err)

    def test_catalog_latitude_out_of_bounds_exit_3(self, data_dir, tmp_path, capsys):
        poi = json.loads((data_dir / "catalog.jsonl").read_text().splitlines()[1])
        bad = self.edited_split(data_dir, tmp_path / "bad", "catalog.jsonl", 1,
                                [poi[0], poi[1], 123.0, poi[3]])
        code = main(["build-graphs", "--data", str(bad), "--out", str(tmp_path / "g")] + TINY)
        assert code == 3
        assert (f"error: {bad / 'catalog.jsonl'}:2: coordinates out of bounds: (123.0, "
                in capsys.readouterr().err)

    def test_config_key_set_twice_exit_3(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("d = 8\n# width again\nlam = 0.1\nd = 16\n")
        code = main(["build-graphs", "--data", str(data_dir), "--out", str(tmp_path / "g"),
                     "--config", str(cfg)])
        assert code == 3
        assert (f"error: {cfg}:4: config key 'd' is set twice, on lines 1 and 4"
                in capsys.readouterr().err)

    def test_train_from_scratch_flag(self, data_dir, tmp_path):
        run = tmp_path / "scratch"
        code = main(["train", "--data", str(data_dir), "--out", str(run),
                     "--from-scratch", "--epochs", "1", "--lam", "0.0"] + TINY)
        assert code == 0

    def test_bool_flags_switch_off(self, data_dir, tmp_path):
        (tmp_path / "c.cfg").write_text("all_prefix = true\n")
        run = tmp_path / "off"
        code = main(["train", "--data", str(data_dir), "--out", str(run),
                     "--config", str(tmp_path / "c.cfg"), "--no-all-prefix",
                     "--no-use-category-bias", "--from-scratch", "--epochs", "1",
                     "--lam", "0.0"] + TINY)
        assert code == 0
        saved = (run / "config.txt").read_text()
        assert "use_category_bias = False" in saved
        assert "all_prefix = False" in saved

    @pytest.mark.parametrize("key, value, shown, allowed", [
        ("d", "0", "0", "[1, inf)"),
        ("m_bins", "0", "0", "[1, inf)"),
        ("tau", "0", "0.0", "(0, inf)"),
        ("degree_buckets", "-1", "-1", "[0, inf)"),
        ("batch_size", "0", "0", "[1, inf)"),
        ("heads", "0", "0", "[1, inf)"),
        ("epochs", "-3", "-3", "[0, inf)"),
        ("correlation_top", "-1", "-1", "[0, inf)"),
        ("lr", "nan", "nan", "[0, inf)"),
        ("beta", "1", "1.0", "[0, 1)"),
        ("walk_len", "1", "1", "[2, inf)"),
        ("seed", "-1", "-1", "[0, inf)"),
    ])
    def test_config_value_out_of_range_exit_3(self, data_dir, tmp_path, capsys, monkeypatch,
                                              key, value, shown, allowed):
        monkeypatch.setattr(cli, "Trainer", None)  # refused before any Trainer
        code = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "run"),
                     "--from-scratch"] + TINY + ["--" + key.replace("_", "-"), value])
        assert code == 3
        assert (f"error: config key {key!r} of value {shown}, outside its range {allowed}"
                in capsys.readouterr().err)

    def test_config_file_value_out_of_range_exit_3(self, data_dir, tmp_path, capsys):
        (tmp_path / "c.cfg").write_text("n2v_q = -0.5\n")
        code = main(["pretrain", "--data", str(data_dir), "--out", str(tmp_path / "emb"),
                     "--config", str(tmp_path / "c.cfg")] + TINY)
        assert code == 3
        assert "config key 'n2v_q' of value -0.5, outside its range (0, inf)" \
            in capsys.readouterr().err

    def test_bad_bool_in_config_file_exit_3(self, data_dir, tmp_path, capsys):
        (tmp_path / "c.cfg").write_text("from_scratch = ture\n")
        code = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "run"),
                     "--config", str(tmp_path / "c.cfg")] + TINY)
        assert code == 3
        assert "bad boolean 'ture'" in capsys.readouterr().err


# `poirec augment-debug` on `data_dir` with TINY flags, trajectory 0
AUGMENT_DEBUG_TRAJ_0 = """\
--- source: 3 nodes, last=p003
  p003 -> p003
  p008 -> p003
  p008 -> p008
  p010 -> p008
  p010 -> p010
--- node_dropout(beta=0.3): 2 nodes, last=p003
  p003 -> p003
  p010 -> p003
  p010 -> p010
--- correlated_insertion(k=1, spatial): 4 nodes, last=p003
  p003 -> p003
  p003 -> p007
  p007 -> p003
  p007 -> p007
  p008 -> p003
  p008 -> p008
  p010 -> p008
  p010 -> p010
--- correlated_insertion(k=1, temporal): 3 nodes, last=p003
  p003 -> p003
  p008 -> p003
  p008 -> p008
  p010 -> p008
  p010 -> p010
--- correlated_substitute(k=1): 3 nodes, last=p003
  p003 -> p003
  p004 -> p003
  p004 -> p004
  p010 -> p004
  p010 -> p010
"""


class TestSweepAndDebug:
    def test_invalid_sweep_param_exit_3(self, data_dir, tmp_path, capsys):
        code = main(["sweep", "--param", "lr", "--values", "0.1",
                     "--data", str(data_dir)])
        assert code == 3
        assert "cannot sweep" in capsys.readouterr().err

    def test_sweep_over_lambda(self, data_dir, capsys):
        code = main(["sweep", "--param", "lam", "--values", "0.0,0.1",
                     "--data", str(data_dir), "--from-scratch",
                     "--epochs", "1"] + TINY)
        assert code == 0
        out = capsys.readouterr().out
        assert "lam=0.0:" in out and "lam=0.1:" in out

    def test_augment_debug_prints_operators(self, data_dir, capsys):
        code = main(["augment-debug", "--data", str(data_dir),
                     "--traj-index", "0"] + TINY)
        assert code == 0
        out = capsys.readouterr().out
        assert "--- source" in out
        assert "node_dropout" in out and "correlated_substitute" in out

    def test_augment_debug_output_is_pinned(self, data_dir, capsys):
        # graphs hold catalog rows; the command prints their poi_ids, edges
        # in poi_id order, exactly as when graphs held poi_ids
        assert main(["augment-debug", "--data", str(data_dir)] + TINY) == 0
        assert capsys.readouterr().out == AUGMENT_DEBUG_TRAJ_0

    def test_augment_debug_without_contrastive_term(self, data_dir, capsys):
        # at lam = 0 training builds no correlation index; the command builds
        # its own, from the same initial POI vectors
        outs = []
        for lam in ("0.0", "0.1"):
            assert main(["augment-debug", "--data", str(data_dir), "--traj-index", "0",
                         "--lam", lam] + TINY) == 0
            outs.append(capsys.readouterr().out)
        assert "correlated_insertion(k=1, spatial)" in outs[0]
        assert outs[0] == outs[1]

    def test_augment_debug_bad_index_exit_3(self, data_dir, capsys):
        code = main(["augment-debug", "--data", str(data_dir),
                     "--traj-index", "9999"] + TINY)
        assert code == 3
        assert "out of range" in capsys.readouterr().err


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# prints the BLAS thread variables as they are when numpy is first imported
SPY_ON_NUMPY = """
import os, sys
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not hasattr(self, "seen"):
            self.seen = [os.environ.get(v, "-") for v in %r]
spy = Spy()
sys.meta_path.insert(0, spy)
import poirec
print(" ".join(spy.seen))
""" % (BLAS_VARS,)


class TestBlasThreads:
    @pytest.mark.parametrize("user, seen", [
        ({}, "1 1 1"),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "3"}, "2 3 1"),
    ], ids=["default", "user-set"])
    def test_pinned_before_numpy_loads_unless_set(self, user, seen):
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
        env.update(user, PYTHONPATH=str(Path(poirec.__file__).resolve().parents[1]))
        out = subprocess.run([sys.executable, "-c", SPY_ON_NUMPY], env=env,
                             capture_output=True, text=True, timeout=60, check=True)
        assert out.stdout.split("\n")[0] == seen
