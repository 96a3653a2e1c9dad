import json

import pytest

from dprand import cli
from dprand.bitgen import GeneratorHandle

SEED_HEX = "0f" * 48


@pytest.fixture
def fig1_spec(tmp_path):
    path = tmp_path / "fig1.json"
    path.write_text(json.dumps({
        "person_hist_dims": [42, 2, 116, 2, 63],
        "unit_hist_dims": [2, 9, 2, 7, 4, 2, 522],
        "geolevels": [
            {"name": "nation", "count": 1},
            {"name": "state-equivalents", "count": 51},
            {"name": "county-equivalents", "count": 3143},
            {"name": "tracts", "count": 73782},
            {"name": "block-groups", "count": 217550},
            {"name": "blocks", "count": 8000000},
        ],
        "bits_per_cell": 64,
    }))
    return path


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestBudgetCommand:
    def test_text_output(self, capsys, fig1_spec):
        assert cli.run(["budget", "--spec", str(fig1_spec)]) == 0
        out = capsys.readouterr().out
        assert "1,210,388,341,413,888" in out

    def test_json_output(self, capsys, fig1_spec):
        code, doc = run_json(capsys, ["budget", "--spec", str(fig1_spec), "--json"])
        assert code == 0
        assert doc["schema"] == "dprand.budget/1"
        assert doc["total_bits"] == 1_210_388_341_413_888

    def test_missing_file_is_domain_error(self, capsys, tmp_path):
        assert cli.run(["budget", "--spec", str(tmp_path / "nope.json")]) == 1


class TestSampleCommand:
    def test_geometric_deterministic_with_seed(self, capsys):
        args = ["sample", "--mechanism", "geometric", "--epsilon", "0.7",
                "--count", "20", "--seed-hex", SEED_HEX, "--json"]
        code1, doc1 = run_json(capsys, args)
        code2, doc2 = run_json(capsys, args)
        assert code1 == code2 == 0
        assert doc1["values"] == doc2["values"]
        assert doc1["schema"] == "dprand.sample/1"
        assert len(doc1["values"]) == 20

    def test_text_output_is_csv(self, capsys):
        assert cli.run(["sample", "--mechanism", "geometric", "--epsilon", "1",
                        "--count", "3", "--seed-hex", SEED_HEX]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "index,value"
        assert len(lines) == 4

    def test_zero_epsilon_rejected(self, capsys):
        code = cli.run(["sample", "--mechanism", "geometric", "--epsilon", "0",
                        "--count", "1", "--seed-hex", SEED_HEX])
        assert code == 1
        assert "epsilon must be positive" in capsys.readouterr().err

    def test_laplace_requires_override(self, capsys):
        base = ["sample", "--mechanism", "laplace-insecure", "--epsilon", "1",
                "--count", "2"]
        assert cli.run(base) == 1
        assert "insecure_override" in capsys.readouterr().err
        assert cli.run(base + ["--insecure-override"]) == 0

    def test_laplace_json_marked_insecure(self, capsys):
        code, doc = run_json(capsys, ["sample", "--mechanism", "laplace-insecure",
                                      "--epsilon", "1", "--count", "2",
                                      "--seed-hex", SEED_HEX, "--json"])
        assert code == 0
        assert doc["insecure"] is True


class TestAttackCommand:
    def test_mt_dump_validates(self, capsys, tmp_path):
        g = GeneratorHandle.insecure_mt19937(123)
        dump = tmp_path / "cells.json"
        dump.write_text(json.dumps({"cells": [g.next_u64() for _ in range(400)],
                                    "channel": "identity"}))
        code, doc = run_json(capsys, ["attack", "mt19937", "--cells", str(dump), "--json"])
        assert code == 0
        assert doc["validation"] == "validated"
        assert doc["recovered_true_counts"] == [0] * (400 - 313)

    def test_drbg_dump_refuted_exit_one(self, capsys, tmp_path):
        import os
        g = GeneratorHandle.from_drbg_seed(os.urandom(48))
        dump = tmp_path / "cells.json"
        dump.write_text(json.dumps({"cells": [g.next_u64() for _ in range(400)]}))
        code, doc = run_json(capsys, ["attack", "mt19937", "--cells", str(dump), "--json"])
        assert code == 1
        assert doc["validation"] == "refuted"

    def test_short_dump_is_domain_error(self, capsys, tmp_path):
        dump = tmp_path / "cells.json"
        dump.write_text(json.dumps({"cells": [0] * 100}))
        assert cli.run(["attack", "mt19937", "--cells", str(dump)]) == 1


class TestSelftestCommand:
    def test_bundled_vectors_pass(self, capsys):
        code, doc = run_json(capsys, ["selftest", "--json"])
        assert code == 0
        assert doc["failed"] == 0
        assert doc["passed"] >= 17

    def test_corrupted_vector_dir_fails(self, capsys, tmp_path):
        (tmp_path / "bad.rsp").write_text(
            "[AES-256 no df]\n[PredictionResistance = False]\n[ReturnedBitsLen = 512]\n\n"
            "COUNT = 0\nEntropyInput = " + "00" * 48 + "\n"
            "AdditionalInput = \nAdditionalInput = \n"
            "ReturnedBits = " + "ff" * 64 + "\n")
        assert cli.run(["selftest", "--kat-dir", str(tmp_path)]) == 1


class TestEntropyCommand:
    def test_probe_os(self, capsys):
        code, doc = run_json(capsys, ["entropy", "probe", "--n", "16", "--json"])
        assert code == 0
        assert doc["schema"] == "dprand.entropy-probe/1"
        assert doc["bytes"] == 16
        assert doc["diagnostics"][0]["attempts"] == 1

    def test_probe_clamps_to_the_source_read_cap(self, capsys):
        code, doc = run_json(capsys, ["entropy", "probe", "--n", "2000", "--json"])
        assert code == 0
        assert doc["bytes"] == 1024
        assert [e["bytes"] for e in doc["diagnostics"]] == [1024]

    def test_probe_fixed_needs_override(self, capsys):
        assert cli.run(["entropy", "probe", "--source", "fixed"]) == 1
        assert cli.run(["entropy", "probe", "--source", "fixed", "--insecure-override"]) == 0

    def test_probe_hardware_unavailable_here(self, capsys):
        assert cli.run(["entropy", "probe", "--source", "rdrand"]) == 1
        assert "not available" in capsys.readouterr().err

    def test_probe_remote_needs_endpoint(self, capsys, monkeypatch):
        monkeypatch.delenv(cli.REMOTE_ENV, raising=False)
        assert cli.run(["entropy", "probe", "--source", "remote"]) == 1

    def test_probe_remote_against_double(self, capsys, monkeypatch, entropy_server):
        url, _ = entropy_server
        monkeypatch.setenv(cli.REMOTE_ENV, url)
        code, doc = run_json(capsys, ["entropy", "probe", "--source", "remote",
                                      "--n", "64", "--json"])
        assert code == 0
        assert doc["source"] == "remote" and doc["bytes"] == 64


class TestUsageErrors:
    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as info:
            cli.build_parser().parse_args(["frobnicate"])
        assert info.value.code == 2

    def test_missing_required_flag_exits_two(self):
        with pytest.raises(SystemExit) as info:
            cli.build_parser().parse_args(["budget"])
        assert info.value.code == 2


class TestBenchCommand:
    def test_quick_bench_json(self, capsys):
        code, doc = run_json(capsys, ["bench", "--threads", "1", "--duration", "1", "--json"])
        assert code == 0
        assert doc["schema"] == "dprand.bench/1"
        assert {r["kind"] for r in doc["rows"]} == {"drbg", "os-locked"}
