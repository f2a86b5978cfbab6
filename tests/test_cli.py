"""CLI subcommands: JSON/CSV contracts, exit codes, determinism."""

import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from kronnoma import CombinerDesign, FactorChain, PatternMatrix, dump_chain
from kronnoma.cli import main


@pytest.fixture()
def chain_file(tmp_path, chain_9x18):
    path = tmp_path / "chain.json"
    dump_chain(chain_9x18, str(path))
    return str(path)


@pytest.fixture()
def chain1_file(tmp_path, chain_3x6):
    path = tmp_path / "chain1.json"
    dump_chain(chain_3x6, str(path))
    return str(path)


def _search_mp3(tmp_path, name="designs.json"):
    out = tmp_path / name
    assert main(["search", "--mp", "3", "--json-out", str(out)]) == 0
    return out


class TestSearch:
    def test_golden_output(self, tmp_path, P3):
        out = _search_mp3(tmp_path)
        designs = [CombinerDesign.from_json_dict(d) for d in json.loads(out.read_text())]
        assert len(designs) == 29
        assert designs[0].P == P3
        assert [str(g) for g in designs[0].gains] == ["4/3", "4/3", "4/3"]

    def test_byte_deterministic(self, tmp_path):
        a = _search_mp3(tmp_path, "a.json").read_bytes()
        b = _search_mp3(tmp_path, "b.json").read_bytes()
        assert a == b

    def test_mp1_trivial(self, tmp_path):
        out = tmp_path / "one.json"
        assert main(["search", "--mp", "1", "--json-out", str(out)]) == 0
        designs = json.loads(out.read_text())
        assert len(designs) == 1
        assert designs[0]["P"]["data"] == [1]

    def test_cap_exit_code(self, capsys):
        assert main(["search", "--mp", "9"]) == 3
        assert "cap" in capsys.readouterr().err

    def test_top_flag(self, tmp_path):
        out = tmp_path / "top.json"
        assert main(["search", "--mp", "3", "--top", "2", "--json-out", str(out)]) == 0
        assert len(json.loads(out.read_text())) == 2

    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_top_below_one_exit_2(self, tmp_path, capsys, top):
        out = tmp_path / "top.json"
        assert main(["search", "--mp", "3", "--top", top, "--json-out", str(out)]) == 2
        assert "--top" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_ref_snr_exit_2(self, capsys):
        assert main(["search", "--mp", "3", "--ref-snr-db", "nan"]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mp, digest",
        [
            ("3", "a18b9108bf65274777a31031f53c557ad5e68077172146137cf5acccdfe7691e"),
            ("4", "4ffdff30e6e905f569c32ac21db7c2b5f08f8b0cef8fee9369b12d5bb2a7f3f4"),
        ],
    )
    def test_golden_search_json(self, tmp_path, mp, digest):
        # every feasible design, its combiners and the ranking, pinned byte for byte
        out = tmp_path / f"mp{mp}.json"
        assert main(["search", "--mp", mp, "--json-out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestDesign:
    def test_round_trip(self, tmp_path, P3, design3):
        p_file = tmp_path / "p.json"
        p_file.write_text(json.dumps(P3.to_json_dict()))
        out = tmp_path / "design.json"
        assert main(["design", "--p", str(p_file), "--json-out", str(out)]) == 0
        assert CombinerDesign.from_json_dict(json.loads(out.read_text())) == design3

    def test_infeasible_exit_2(self, tmp_path, capsys):
        P = PatternMatrix(np.array([[1, 1, 0], [1, 1, 1], [0, 0, 1]]))
        p_file = tmp_path / "p.json"
        p_file.write_text(json.dumps(P.to_json_dict()))
        assert main(["design", "--p", str(p_file)]) == 2
        err = capsys.readouterr().err
        assert "0" in err and "1" in err  # the two unresolvable columns

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["design", "--p", str(tmp_path / "nope.json")]) == 2


class TestRate:
    def test_round_trip_from_search(self, tmp_path, chain_file):
        designs = _search_mp3(tmp_path)
        out = tmp_path / "rates.csv"
        code = main(
            [
                "rate",
                "--chain",
                chain_file,
                "--gains",
                str(designs),
                "--snr-db-min",
                "0",
                "--snr-db-max",
                "20",
                "--snr-db-step",
                "5",
                "--csv-out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "snr_db,c_recursive,c_pdma,c_oma,c_example4"
        assert len(lines) == 6
        for line in lines[1:]:
            snr_db, c_rec, c_pdma, c_oma, c_ex4 = map(float, line.split(","))
            snr = 10.0 ** (snr_db / 10.0)
            assert c_rec == pytest.approx(0.5 * math.log2(1 + 2 * (4 / 3) ** 2 * snr), rel=1e-10)
            assert c_ex4 >= c_rec
            assert c_rec >= c_oma

    def test_gains_derived_when_absent(self, tmp_path, chain_file):
        out = tmp_path / "rates.csv"
        args = [
            "rate", "--chain", chain_file,
            "--snr-db-min", "0", "--snr-db-max", "2", "--snr-db-step", "1",
            "--csv-out", str(out),
        ]
        assert main(args) == 0
        assert len(out.read_text().splitlines()) == 4

    def test_oma_unit_point(self, tmp_path, chain_file, capsys):
        # snr_db = 10 log10(3): c_oma = 0.5 log2(4) = 1 exactly
        db = 10.0 * math.log10(3.0)
        assert (
            main(
                [
                    "rate",
                    "--chain",
                    chain_file,
                    "--baselines",
                    "oma",
                    "--snr-db-min",
                    str(db),
                    "--snr-db-max",
                    str(db),
                    "--snr-db-step",
                    "1",
                ]
            )
            == 0
        )
        header, row = capsys.readouterr().out.splitlines()
        assert header == "snr_db,c_recursive,c_oma"
        assert float(row.split(",")[2]) == pytest.approx(1.0, abs=1e-12)

    def test_unknown_baseline_exit_2(self, chain_file):
        assert main(["rate", "--chain", chain_file, "--baselines", "tdma"]) == 2

    @pytest.mark.parametrize("flag", ["--snr-db-min", "--snr-db-max"])
    def test_nan_grid_end_exit_2(self, chain_file, capsys, flag):
        assert main(["rate", "--chain", chain_file, flag, "nan"]) == 2
        assert "finite" in capsys.readouterr().err

    def test_infinite_grid_end_exit_2(self, chain_file, capsys):
        # int() of an infinite point count would raise OverflowError
        assert main(["rate", "--chain", chain_file, "--snr-db-max", "inf"]) == 2
        assert "finite" in capsys.readouterr().err

    def test_deep_chain_overflow_exit_2(self, tmp_path, F12, P3, capsys):
        # float((4/3)^3000) does not exist: the CLI must report it, not crash
        deep = tmp_path / "deep.json"
        dump_chain(FactorChain(F12, P3, 3000), str(deep))
        assert main(["rate", "--chain", str(deep), "--baselines", "oma"]) == 2
        assert "depth-3000 chain at snr=1 exceeds the float range" in capsys.readouterr().err

    def test_byte_deterministic(self, tmp_path, chain_file):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["rate", "--chain", chain_file, "--snr-db-max", "10"]
        assert main(args + ["--csv-out", str(a)]) == 0
        assert main(args + ["--csv-out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSimulate:
    def test_csv_schema_and_summary(self, tmp_path, chain_file, capsys):
        out = tmp_path / "sim.csv"
        code = main(
            [
                "simulate",
                "--chain",
                chain_file,
                "--snr-db",
                "0,10",
                "--trials",
                "150",
                "--seed",
                "5",
                "--csv-out",
                str(out),
            ]
        )
        assert code == 0
        summary = capsys.readouterr().out
        assert "combining_adds_bound=36" in summary
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "snr_db,trials,ser,coupled_ser,ambiguity_rate,"
            "measured_adds,measured_muls,bound_adds,bound_muls"
        )
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "150"
        assert int(first[5]) <= int(first[7])
        assert int(first[6]) <= int(first[8])

    def test_zero_trials_header_only(self, tmp_path, chain_file):
        out = tmp_path / "empty.csv"
        code = main(
            ["simulate", "--chain", chain_file, "--snr-db", "0", "--trials", "0",
             "--csv-out", str(out)]
        )
        assert code == 0
        assert out.read_text() == (
            "snr_db,trials,ser,coupled_ser,ambiguity_rate,"
            "measured_adds,measured_muls,bound_adds,bound_muls\n"
        )

    def test_byte_deterministic(self, tmp_path, chain_file):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--chain", chain_file, "--snr-db", "0,6", "--trials", "100",
                "--seed", "11"]
        assert main(args + ["--csv-out", str(a)]) == 0
        assert main(args + ["--csv-out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_detector_oracle(self, tmp_path, chain1_file):
        out = tmp_path / "oracle.csv"
        code = main(
            ["simulate", "--chain", chain1_file, "--snr-db", "20", "--trials", "50",
             "--detector", "oracle", "--csv-out", str(out)]
        )
        assert code == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[5] == "0"  # oracle runs outside the op budget

    def test_detector_sic(self, tmp_path, chain_file, capsys):
        out = tmp_path / "sic.csv"
        code = main(
            ["simulate", "--chain", chain_file, "--snr-db", "10", "--trials", "60",
             "--detector", "sic", "--csv-out", str(out)]
        )
        assert code == 0
        assert "combining_adds_bound=36" in capsys.readouterr().out
        row = out.read_text().splitlines()[1].split(",")
        assert int(row[5]) <= int(row[7])

    def test_power_offsets_flag(self, tmp_path, chain1_file):
        out = tmp_path / "offs.csv"
        offs = ",".join(["1"] * 3 + ["0.5"] * 3)
        code = main(
            ["simulate", "--chain", chain1_file, "--snr-db", "60", "--trials", "80",
             "--power-offsets", offs, "--csv-out", str(out)]
        )
        assert code == 0
        row = out.read_text().splitlines()[1].split(",")
        assert float(row[2]) == 0.0  # individual SER vanishes at high SNR

    @pytest.mark.parametrize("snr_db", ["nan", "inf", "0,nan", "-inf,0"])
    def test_non_finite_snr_exit_2(self, tmp_path, chain_file, capsys, snr_db):
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--chain", chain_file, f"--snr-db={snr_db}",
                     "--trials", "20", "--seed", "1", "--csv-out", str(out)])
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_power_offset_exit_2(self, chain1_file, capsys):
        offs = ",".join(["1"] * 5 + ["nan"])
        assert main(["simulate", "--chain", chain1_file, "--snr-db", "10", "--trials", "5",
                     "--power-offsets", offs]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "detector, digest",
        [
            ("recursive", "128b660365ed6c87a85cb15b0b70b78f2c3a817f301a49500a5cb10de99041eb"),
            ("sic", "2cb9d75c0d80bb42210e5e2933c2f0111149e12ae9471681258968a461e7f818"),
        ],
    )
    def test_golden_27x54_csv(self, tmp_path, F12, P3, detector, digest):
        # fixed-seed output of the depth-3 receiver, pinned byte for byte:
        # 378/432 (plain) and 387/450 (SIC) measured adds/muls per detection
        chain_file = tmp_path / "chain27.json"
        dump_chain(FactorChain(F12, P3, 3), str(chain_file))
        out = tmp_path / f"{detector}.csv"
        code = main(["simulate", "--chain", str(chain_file), "--snr-db", "0,2,4",
                     "--trials", "100", "--seed", "20261018", "--detector", detector,
                     "--csv-out", str(out)])
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_negative_grid_space_separated(self, tmp_path, chain_file):
        # argparse alone reads "-3,0,5" as an option and refuses the first form
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--chain", chain_file, "--trials", "10", "--seed", "3"]
        assert main(args + ["--snr-db", "-3,0,5", "--csv-out", str(a)]) == 0
        assert main(args + ["--snr-db=-3,0,5", "--csv-out", str(b)]) == 0
        assert a.read_text().splitlines()[1].startswith("-3,10,")
        assert a.read_bytes() == b.read_bytes()

    def test_descending_grid_exit_2(self, chain_file):
        assert main(["simulate", "--chain", chain_file, "--snr-db", "10,0",
                     "--trials", "1"]) == 2

    def test_bad_chain_path_exit_2(self, tmp_path):
        assert main(["simulate", "--chain", str(tmp_path / "missing.json"),
                     "--snr-db", "0", "--trials", "1"]) == 2

    def test_wrong_design_exit_2(self, tmp_path, chain_file, P4):
        from kronnoma import find_combiners

        design_file = tmp_path / "d4.json"
        design_file.write_text(json.dumps(find_combiners(P4).to_json_dict()))
        assert main(["simulate", "--chain", chain_file, "--snr-db", "0",
                     "--trials", "1", "--design", str(design_file)]) == 2


class TestCountOps:
    def test_reference_table(self, chain_file, capsys):
        assert main(["count-ops", "--chain", chain_file]) == 0
        out = capsys.readouterr().out
        for needle in (
            "n_add_reg=8",
            "n_mul_reg=16",
            "combining_adds_bound=36",
            "total_adds_bound=108",
            "total_muls_bound=144",
            "final_sets=9",
        ):
            assert needle in out

    def test_sic_budget(self, chain_file, capsys):
        assert main(["count-ops", "--chain", chain_file, "--sic"]) == 0
        out = capsys.readouterr().out
        assert "total_adds_bound=126" in out
        assert "total_muls_bound=162" in out


class TestEntryPoint:
    def test_console_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "kronnoma.cli", "search", "--mp", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)[0]["weights"] == [1]

    def test_no_subcommand_exit_2(self):
        assert main([]) == 2

    def test_help_exit_0(self):
        assert main(["--help"]) == 0
