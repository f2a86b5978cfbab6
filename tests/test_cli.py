"""CLI subcommands: JSON/CSV contracts, exit codes, determinism."""

import hashlib
import io
import json
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from kronnoma import (
    CombinerDesign,
    FactorChain,
    PatternMatrix,
    find_combiners,
    run_algorithm1,
    sum_rate_recursive,
)
from kronnoma import cli, combiner
from kronnoma.cli import main
from conftest import dump_chain


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

    def test_top_is_prefix_of_full_search(self, tmp_path):
        full, top = tmp_path / "full.json", tmp_path / "top.json"
        assert main(["search", "--mp", "4", "--json-out", str(full)]) == 0
        assert main(["search", "--mp", "4", "--top", "7", "--json-out", str(top)]) == 0
        assert json.loads(top.read_text()) == json.loads(full.read_text())[:7]

    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_top_below_one_exit_2(self, tmp_path, capsys, top):
        out = tmp_path / "top.json"
        assert main(["search", "--mp", "3", "--top", top, "--json-out", str(out)]) == 2
        assert "--top" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_ref_snr_exit_2(self, capsys):
        assert main(["search", "--mp", "3", "--ref-snr-db", "nan"]) == 2
        assert "finite" in capsys.readouterr().err

    def test_huge_ref_snr_exit_2(self, capsys):
        # 10^(4000/10) is beyond the float range
        assert main(["search", "--mp", "3", "--ref-snr-db", "4000"]) == 2
        assert "4000 dB exceeds the float range" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mp, digest",
        [
            ("3", "a18b9108bf65274777a31031f53c557ad5e68077172146137cf5acccdfe7691e"),
            ("4", "4ffdff30e6e905f569c32ac21db7c2b5f08f8b0cef8fee9369b12d5bb2a7f3f4"),
            # 52,563 designs, 45,687,851 bytes
            ("5", "e084614e194968ba584e30b732435b2c273c374cb62ae4fc9102a083906cd756"),
        ],
    )
    def test_golden_search_json(self, tmp_path, mp, digest):
        # every feasible design, its combiners and the ranking, pinned byte for byte
        out = tmp_path / f"mp{mp}.json"
        assert main(["search", "--mp", mp, "--json-out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_golden_search_mp5_top10(self, tmp_path):
        out = tmp_path / "mp5.json"
        assert main(["search", "--mp", "5", "--top", "10", "--json-out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "28ddfbed97f53fd2b57b28329803f8eeb12a03f13d33ca2b28fdb1235374cd18"
        )

    def test_writes_from_arrays_building_no_design(self, tmp_path, monkeypatch):
        built, design = [], combiner._design

        def counting(*args):
            built.append(args)
            return design(*args)

        monkeypatch.setattr(combiner, "_design", counting)
        out = tmp_path / "mp4.json"
        assert main(["search", "--mp", "4", "--json-out", str(out)]) == 0
        assert built == []
        monkeypatch.setattr(combiner, "_design", design)
        assert out.read_text() == json.dumps(
            [sd.design.to_json_dict() for sd in run_algorithm1(4)], indent=2) + "\n"


class TestDesign:
    @pytest.mark.parametrize("P", ["P3", "P4"])
    def test_record_layout(self, tmp_path, request, P):
        # the record of a single design, written by the search's writer at the top level
        P = request.getfixturevalue(P)
        p_file, out = tmp_path / "p.json", tmp_path / "design.json"
        p_file.write_text(json.dumps(P.to_json_dict()))
        assert main(["design", "--p", str(p_file), "--json-out", str(out)]) == 0
        assert out.read_text() == json.dumps(find_combiners(P).to_json_dict(), indent=2) + "\n"

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
        # float((4/3)^3000) does not exist: the CLI must report it, not crash.
        # The grid's largest point (30 dB) is rated first, so it is the one named
        deep = tmp_path / "deep.json"
        dump_chain(FactorChain(F12, P3, 3000), str(deep))
        assert main(["rate", "--chain", str(deep), "--baselines", "oma"]) == 2
        assert "depth-3000 chain at snr=1000 exceeds the float range" in capsys.readouterr().err

    @pytest.mark.parametrize("snr_db_max", ["9999", "3080"])
    def test_refused_grid_rates_at_most_one_point(self, monkeypatch, chain_file, capsys,
                                                  snr_db_max):
        # ~31,000-100,000 points, refused at the top of the grid (10^999.9 is
        # not a float; at 3080 dB the rates overflow): only that point is tried
        rated = []

        def counting(chain, gains, snr):
            rated.append(snr)
            if len(rated) > 1:
                raise RuntimeError("a second point was rated")
            return sum_rate_recursive(chain, gains, snr)

        monkeypatch.setattr(cli, "sum_rate_recursive", counting)
        assert main(["rate", "--chain", chain_file, "--snr-db-min", "0",
                     "--snr-db-max", snr_db_max, "--snr-db-step", "0.1"]) == 2
        assert len(rated) <= 1
        assert "exceeds the float range" in capsys.readouterr().err

    @pytest.mark.parametrize("args, digest", [
        ([], "e21e134f6e7d7b447daf279533f5664c7001eb331df3cd350c1b4ecc2afe389f"),
        (["--gains", "SEARCH", "--snr-db-min", "-5", "--snr-db-step", "0.5"],
         "21d4470fb5d7ec666a33fdd058f176692f7955767a1731f8f3ba85aedb1de737"),
    ])
    def test_golden_rate_csv(self, tmp_path, chain_file, args, digest):
        # the 9x18 chain over 0-30 dB with every baseline, and the same from
        # the mp 3 search's designs on a finer grid, pinned byte for byte
        args = [str(_search_mp3(tmp_path)) if a == "SEARCH" else a for a in args]
        out = tmp_path / "rates.csv"
        assert main(["rate", "--chain", chain_file, *args, "--csv-out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_huge_snr_exit_2(self, chain_file, capsys):
        assert main(["rate", "--chain", chain_file, "--snr-db-min", "4000",
                     "--snr-db-max", "4000"]) == 2
        assert "4000 dB exceeds the float range" in capsys.readouterr().err

    def test_grid_past_float_range_names_its_largest_point(self, chain_file, capsys):
        # 3100 dB is the first point past the float range, but the largest,
        # 3200 dB, is converted first and named
        assert main(["rate", "--chain", chain_file, "--snr-db-min", "0",
                     "--snr-db-max", "3200", "--snr-db-step", "100"]) == 2
        assert capsys.readouterr().err == "error: an SNR of 3200 dB exceeds the float range\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("r", [642, 800])
    def test_deep_chain_rated_exit_0(self, tmp_path, F12, P3, capsys, r):
        # 3^r paths and 2M = 2 * 3^r have no float, but their shares do: the
        # rate at 0 dB is 0.5 log2(1 + 2 (4/3)^r), with no numpy warning
        deep = tmp_path / "deep.json"
        dump_chain(FactorChain(F12, P3, r), str(deep))
        assert main(["rate", "--chain", str(deep), "--baselines", "oma",
                     "--snr-db-max", "0"]) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert header == "snr_db,c_recursive,c_oma"
        snr_db, c_recursive, c_oma = row.split(",")
        assert (snr_db, c_oma) == ("0", "0.5")
        closed = 0.5 * math.log2(1.0 + 2.0 * float(Fraction(4, 3) ** r))
        assert float(c_recursive) == pytest.approx(closed, rel=1e-11)

    @pytest.mark.parametrize("step", ["1e-9", "5e-324"])
    def test_grid_cap_exit_3(self, chain_file, capsys, step):
        # refused from the point count alone, before any point is built
        assert main(["rate", "--chain", chain_file, "--snr-db-step", step]) == 3
        assert "cap" in capsys.readouterr().err

    @pytest.mark.parametrize("r", [3000, 20000])
    def test_deep_chain_build_error_is_one_short_line(self, tmp_path, F12, P3, capsys, r):
        deep = tmp_path / "deep.json"
        dump_chain(FactorChain(F12, P3, r), str(deep))
        assert main(["rate", "--chain", str(deep)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err) < 200
        assert "refuse to build" in err

    @pytest.mark.parametrize(
        "field, value",
        [("r", 2.7), ("r", True), ("P.data", [1, 1.9, 0, 1, 0, 1, 0, 1, 1]), ("P.rows", 3.5)],
    )
    def test_non_integer_chain_json_exit_2(self, tmp_path, chain_9x18, capsys, field, value):
        obj = chain_9x18.to_json_dict()
        if "." in field:
            outer, inner = field.split(".")
            obj[outer][inner] = value
        else:
            obj[field] = value
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(obj))
        assert main(["rate", "--chain", str(path), "--snr-db-max", "0"]) == 2
        assert "integer" in capsys.readouterr().err

    def test_non_integer_design_weights_exit_2(self, tmp_path, chain_file, design3, capsys):
        obj = design3.to_json_dict()
        obj["weights"] = [2.9, 2, 2]
        design = tmp_path / "design.json"
        design.write_text(json.dumps(obj))
        assert main(["rate", "--chain", chain_file, "--gains", str(design),
                     "--snr-db-max", "0"]) == 2
        assert "integer" in capsys.readouterr().err

    def test_byte_deterministic(self, tmp_path, chain_file):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["rate", "--chain", chain_file, "--snr-db-max", "10"]
        assert main(args + ["--csv-out", str(a)]) == 0
        assert main(args + ["--csv-out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


def _rate_with_designs(tmp_path, chain_file, records, name="designs.json"):
    """Run `rate --gains` on a file holding `records` (or this text, or these
    bytes); (exit code, CSV)."""
    path, out = tmp_path / name, tmp_path / f"{name}.csv"
    if isinstance(records, bytes):
        path.write_bytes(records)
    else:
        path.write_text(records if isinstance(records, str) else json.dumps(records))
    code = main(["rate", "--chain", chain_file, "--gains", str(path),
                 "--snr-db-max", "10", "--snr-db-step", "5", "--csv-out", str(out)])
    return code, out.read_text() if code == 0 else None


# a design record whose 1x1 P matches no chain of the tests
_OTHER_P = '{"P": {"rows": 1, "cols": 1, "data": [1]}}'


class TestResolveDesign:
    """`rate --gains` / `simulate --design` use the first record whose P is
    the chain's; only that record is validated, later ones are never read."""

    @pytest.fixture()
    def records(self, tmp_path, design3):
        # the mp 3 search output with the chain's design moved to the end
        recs = json.loads(_search_mp3(tmp_path).read_text())
        assert recs[0] == design3.to_json_dict()
        return recs[1:] + recs[:1]

    def test_match_not_first_gives_same_csv(self, tmp_path, chain_file, design3, records):
        single = _rate_with_designs(tmp_path, chain_file, design3.to_json_dict(), "one.json")
        assert single[0] == 0
        assert _rate_with_designs(tmp_path, chain_file, records) == single

    @pytest.mark.parametrize("field, value", [
        ("weights", [2.0, 2, 2]),
        ("gains", ["4/3", "4/3", "1"]),
        ("gains", ["4/3", "4/3", "4/0"]),
        ("gains", ["4/3", "4/3", math.inf]),
        ("gains", ["4/3", "4/3", "1.3e0"]),
    ])
    def test_invalid_match_exit_2(self, tmp_path, chain_file, records, capsys, field, value):
        records[-1][field] = value
        assert _rate_with_designs(tmp_path, chain_file, records)[0] == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_p_before_match_exit_2(self, tmp_path, chain_file, records, capsys):
        records[0]["P"]["data"][0] = 1.5
        assert _rate_with_designs(tmp_path, chain_file, records)[0] == 2
        assert "integer" in capsys.readouterr().err

    def test_plain_p_before_match_is_not_built(self, tmp_path, chain_file, records,
                                              monkeypatch):
        # 28 plainly well-formed records before the match are compared as
        # raw fields: of the records, only the match builds a PatternMatrix
        built, from_json = [], PatternMatrix.from_json_dict

        def counting(obj):
            built.append(obj)
            return from_json(obj)

        want = _rate_with_designs(tmp_path, chain_file, records, "before.json")
        monkeypatch.setattr(PatternMatrix, "from_json_dict", staticmethod(counting))
        assert _rate_with_designs(tmp_path, chain_file, records) == want
        # the chain file's F and P, then the match's P
        assert len(built) == 3 and built[2] == records[-1]["P"]

    @pytest.mark.parametrize("field, value", [
        ("data", True),
        ("data", 1.0),
        ("data", 2),
        ("data", 2**70),
        ("data", [1, 1, 0]),
        ("data", "110101011"),
        ("rows", 3.0),
        ("rows", True),
        ("rows", 0),
        ("cols", None),
        (None, None),
    ])
    def test_other_p_before_match_refused_as_built(self, tmp_path, chain_file, records,
                                                   capsys, field, value):
        # a P that is not plainly well formed is built and refused with its
        # message, also when it would not match: a True or 1.0 entry, too
        bad = dict(records[0]["P"])
        assert bad != records[-1]["P"]
        if field is None:
            bad = [bad]
        elif value is None:
            del bad[field]
        elif field == "data" and not isinstance(value, list):
            bad["data"] = [value] + bad["data"][1:]
        else:
            bad[field] = value
        with pytest.raises(ValueError) as exc:
            PatternMatrix.from_json_dict(bad)
        records[0]["P"] = bad
        assert _rate_with_designs(tmp_path, chain_file, records)[0] == 2
        assert capsys.readouterr().err == f"error: {exc.value}\n"

    @pytest.mark.parametrize("record", [3, "x", None])
    def test_non_object_record_exit_2(self, tmp_path, chain_file, records, capsys, record):
        assert _rate_with_designs(tmp_path, chain_file, [record] + records)[0] == 2
        err = capsys.readouterr().err
        assert "JSON object" in err and "Traceback" not in err

    def test_records_after_match_are_not_read(self, tmp_path, chain_file, design3):
        want = _rate_with_designs(tmp_path, chain_file, [design3.to_json_dict()], "one.json")
        got = _rate_with_designs(tmp_path, chain_file,
                                 [design3.to_json_dict(), 3, {"P": "x"}, {}])
        assert got == want and got[0] == 0

    @pytest.mark.parametrize("tail", [", 3, {\"P\": \"x\"", ", this is not JSON", "]]] trailing",
                                      ""])
    def test_text_after_match_is_not_parsed(self, tmp_path, chain_file, design3, records,
                                            tail):
        # a truncated or garbled tail after the matching record is never
        # reached, so the file rates as the single record does
        want = _rate_with_designs(tmp_path, chain_file, design3.to_json_dict(), "one.json")
        text = " [\n" + json.dumps(design3.to_json_dict(), indent=2) + tail
        assert _rate_with_designs(tmp_path, chain_file, text) == want and want[0] == 0
        # the same record last in the search file, then cut after it
        text = json.dumps(records)[:-1] + tail
        assert _rate_with_designs(tmp_path, chain_file, text, "cut.json") == want

    @pytest.mark.parametrize("cut", [2, 40, 400])
    def test_truncated_before_match_exit_2(self, tmp_path, chain_file, records, capsys, cut):
        # the match is the file's last record; cutting 2 or more characters
        # cuts into it
        text = json.dumps(records)
        assert _rate_with_designs(tmp_path, chain_file, text[:-cut])[0] == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("text", ["[]", " [ ]\n", f"[{_OTHER_P}]", _OTHER_P])
    def test_no_match_exit_2(self, tmp_path, chain_file, capsys, text):
        assert _rate_with_designs(tmp_path, chain_file, text)[0] == 2
        assert "no design in the file matches" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("[] x", "Extra data"),
        (f"[{_OTHER_P}] x", "Extra data"),
        (f"[{_OTHER_P} {_OTHER_P}]", "Expecting ',' delimiter"),
        (f"[{_OTHER_P},]", "Expecting value"),
        (f"[{_OTHER_P}", "Expecting ',' delimiter"),
        ("", "Expecting value"),
        (f"{_OTHER_P} x", "Extra data"),
    ])
    def test_malformed_text_before_match_exit_2(self, tmp_path, chain_file, capsys, text,
                                                message):
        # refused with the message json.loads gives for the same text
        with pytest.raises(json.JSONDecodeError, match=message) as exc:
            json.loads(text)
        assert _rate_with_designs(tmp_path, chain_file, text)[0] == 2
        assert capsys.readouterr().err == f"error: {exc.value}\n"

    def test_bytes_after_match_are_not_read(self, tmp_path, chain_file, design3):
        # the match first, then invalid UTF-8 past the first MiB: the file is
        # read no further than a little past the match
        want = _rate_with_designs(tmp_path, chain_file, design3.to_json_dict(), "one.json")
        data = b"[" + json.dumps(design3.to_json_dict()).encode() + b"," + b" " * (2 << 20)
        got = _rate_with_designs(tmp_path, chain_file, data + b"\xff\xfe]")
        assert got == want and want[0] == 0

    @pytest.mark.parametrize("chars", [1, 2, 7])
    def test_read_in_pieces_as_whole(self, tmp_path, chain_file, design3, records, capsys,
                                     monkeypatch, chars):
        # a file read a few characters at a time, so that values, blanks and
        # delimiters are cut between reads, gives the outcome and message the
        # whole text gives
        rec = json.dumps(design3.to_json_dict(), indent=1)
        texts = [json.dumps(records), json.dumps(records, indent=2)[:-3], f" [ {rec} , 3",
                 f"[{_OTHER_P}, 12]", f"[{_OTHER_P}, 12.5e3 ]", f"[{_OTHER_P}, nul",
                 f"[\n{_OTHER_P}\n]\n  x", "[] ", "", "  ", rec]
        want = []
        for text in texts:
            want.append((_rate_with_designs(tmp_path, chain_file, text), capsys.readouterr().err))
        monkeypatch.setattr(cli, "_READ_CHARS", chars)
        for text, expected in zip(texts, want):
            got = _rate_with_designs(tmp_path, chain_file, text), capsys.readouterr().err
            assert got == expected
        # a number cut between reads is read on to its end
        assert list(cli._design_records(io.StringIO("[1, 12.5e3 ,-7]"))) == [1, 12500.0, -7]

    def test_match_in_cut_file_simulates_as_whole_file(self, tmp_path, chain_file, design3,
                                                       capsys):
        # `simulate --design` reads the file the same way
        rec = json.dumps(design3.to_json_dict())
        outs = []
        for name, text in (("whole.json", f"[{rec}]"), ("cut.json", f"[{rec}, {rec[:30]}")):
            path = tmp_path / name
            path.write_text(text)
            assert main(["simulate", "--chain", chain_file, "--snr-db", "5", "--trials", "5",
                         "--seed", "3", "--design", str(path)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]


# one field of a valid record, and replacements of the kinds a hand-edited
# or truncated file holds: wrong type, float, bool, negative, wrong length,
# or the key missing
_FIELDS = ["P", "P.rows", "P.cols", "P.data", "alpha", "alpha.rows", "alpha.cols",
           "alpha.data", "weights", "gains"]
_EDGES = [math.inf, -math.inf, math.nan, 0.5, 2.0, True, False, -1, 0, 2**63, -(2**63) - 1,
          "1/0", "-4/3", "4/3", "1e9", "", [], {}]
_VALUES = st.one_of(
    st.sampled_from(_EDGES), st.none(), st.floats(), st.text(max_size=6),
    st.integers(-(2**64), 2**64),
    st.lists(st.one_of(st.integers(-3, 3), st.floats(), st.booleans(), st.text(max_size=4)),
             max_size=12),
    st.dictionaries(st.sampled_from(["rows", "cols", "data"]), st.integers(-3, 9), max_size=3),
)


@given(field=st.sampled_from(_FIELDS),
       how=st.sampled_from(["missing", "whole", "entry", "append", "drop"]),
       index=st.integers(0, 8), value=_VALUES)
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_design_loader_fuzz(tmp_path, chain_file, design3, field, how, index, value):
    """One changed field of a valid `--gains` record: exit 0 or 2, never a
    traceback.  `entry`, `append` and `drop` act on one entry of a list
    field and replace a scalar field whole."""
    rec = design3.to_json_dict()
    *outer, key = field.split(".")
    parent = rec[outer[0]] if outer else rec
    entries = parent[key] if isinstance(parent[key], list) else None
    if how == "missing":
        del parent[key]
    elif entries is None or how == "whole":
        parent[key] = value
    elif how == "entry":
        entries[index % len(entries)] = value
    elif how == "append":
        entries.append(value)
    else:
        entries.pop(index % len(entries))
    assert _rate_with_designs(tmp_path, chain_file, rec)[0] in (0, 2)


@pytest.mark.parametrize("argv, message", [
    (["rate", "--chain", "CHAIN", "--gains", "CHAIN"], "design record has no field 'alpha'"),
    (["design", "--p", "CHAIN"], "pattern matrix has no field 'rows'"),
    (["rate", "--chain", "LIST"], "factor chain must be a JSON object"),
], ids=["chain-as-gains", "chain-as-p", "list-as-chain"])
def test_json_boundary_names_the_fault(tmp_path, chain_file, capsys, argv, message):
    """A JSON file of the wrong kind is refused by the field it lacks."""
    listing = tmp_path / "list.json"
    listing.write_text("[1, 2]")
    files = {"CHAIN": chain_file, "LIST": str(listing)}
    assert main([files.get(a, a) for a in argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.fixture(scope="module")
def chains(tmp_path_factory, F12, P3):
    """Chain files of depth 0, 1 and 2 (2, 6 and 18 users), by name."""
    d = tmp_path_factory.mktemp("chains")
    for r in range(3):
        dump_chain(FactorChain(F12, P3, r), str(d / f"r{r}.json"))
    return {f"r{r}": str(d / f"r{r}.json") for r in range(3)}


# values at and beyond the float range's edges in both domains: -3090 dB is
# a subnormal SNR, 1e150 offsets run and 1e160 overflow a squared distance
_DB = st.one_of(st.floats(-20, 40), st.floats(),
                st.sampled_from([-3090.0, -3000.0, 3000.0, 3080.0]))
_POSITIVE = st.one_of(st.floats(0.1, 10), st.floats(min_value=0.0, exclude_min=True),
                      st.sampled_from([1e150, 1e160, 1e308, 5e-324]))


@st.composite
def _cli_argv(draw):
    """argv of `simulate`, `rate` or `count-ops` on a chain of depth r <= 2;
    chain files are named r0, r1 and r2."""
    r = draw(st.integers(0, 2))
    cmd = draw(st.sampled_from(["simulate", "rate", "count-ops"]))
    argv = [cmd, "--chain", f"r{r}"]
    constellation = ["--constellation", draw(st.sampled_from(["bpsk", "qpsk"]))]
    if cmd == "count-ops":
        return argv + constellation + draw(st.sampled_from([[], ["--sic"]]))
    if cmd == "rate":
        # at most 31 points unless the grid is refused, so a run stays short
        lo, step = draw(_DB), draw(st.one_of(_POSITIVE, st.floats()))
        hi = draw(st.one_of(st.integers(0, 30).map(lambda n: lo + n * step), _DB))
        baselines = draw(st.lists(st.sampled_from(["pdma", "oma", "example4"]), unique=True))
        return argv + [f"--snr-db-min={lo}", f"--snr-db-max={hi}", f"--snr-db-step={step}",
                       "--baselines", ",".join(baselines)]
    snrs = draw(st.lists(_DB, min_size=1, max_size=3, unique=True))
    if draw(st.integers(0, 3)):
        snrs.sort()
    argv += [f"--snr-db={','.join(map(str, snrs))}",
             "--trials", str(draw(st.integers(-1, 20))),
             "--seed", str(draw(st.integers(0, 2**64))),
             "--detector", draw(st.sampled_from(["recursive", "oracle", "sic"])),
             *constellation]
    if draw(st.booleans()):
        users = 2 * 3**r + draw(st.sampled_from([0, 0, 0, -1, 1]))
        offsets = draw(st.lists(_POSITIVE, min_size=users, max_size=users))
        if offsets and not draw(st.integers(0, 3)):
            offsets[draw(st.integers(0, users - 1))] = draw(st.floats())
        argv.append(f"--power-offsets={','.join(map(str, offsets))}")
    return argv


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(argv=_cli_argv())
@example(argv=["simulate", "--chain", "r2", "--snr-db=-3090", "--trials", "5"])
@example(argv=["simulate", "--chain", "r2", "--snr-db=10", "--trials", "5",
               f"--power-offsets={','.join(['1e308'] * 18)}"])
@settings(max_examples=100, deadline=None)
def test_cli_fuzz(chains, argv):
    """Random SNRs, power offsets and flags: exit 0, 2 or 3 and no
    RuntimeWarning, which this test raises as an error."""
    assert main([chains.get(a, a) for a in argv]) in (0, 2, 3)


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

    def test_huge_snr_exit_2(self, tmp_path, chain_file, capsys):
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--chain", chain_file, "--snr-db", "4000",
                     "--trials", "2", "--csv-out", str(out)]) == 2
        assert "4000 dB exceeds the float range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_noise_variance_overflow_exit_2(self, chain_file, capsys):
        # 10^-309 is a subnormal SNR: P_x / snr is beyond the float range
        assert main(["simulate", "--chain", chain_file, "--snr-db", "-3090", "--trials", "5"]) == 2
        assert capsys.readouterr().err == (
            "error: at snr=1e-309 the noise variance exceeds the float range\n"
        )

    @pytest.mark.parametrize("detector", ["recursive", "sic"])
    @pytest.mark.parametrize(
        "snr_db, snr",
        [("-3066,-3065", "3.16228e-307"), ("-3070,-3065", "1e-307")],
        ids=["later_point", "both_points"],
    )
    def test_model_overflow_names_first_failing_point(self, chain_file, capsys, detector,
                                                      snr_db, snr):
        # both points' trials share one detection chunk; at seed 8 the trials
        # of -3066 dB run and those of -3065 dB overflow, while at -3070 dB
        # the first point already overflows.  The grid must ascend, so a
        # later point with more noise is tested in test_simkit
        assert main(["simulate", "--chain", chain_file, "--snr-db", snr_db, "--trials", "5",
                     "--seed", "8", "--detector", detector]) == 2
        assert capsys.readouterr().err == (
            f"error: at snr={snr} the model's values exceed the float range "
            "(overflow encountered in square)\n"
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("offset, code", [("1e150", 0), ("1e160", 2), ("1e308", 2)])
    def test_huge_power_offsets(self, tmp_path, chain_file, capsys, offset, code):
        # 1e160 overflows the squared distances, 1e308 already G x
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--chain", chain_file, "--snr-db", "10", "--trials", "5",
                     "--power-offsets", ",".join([offset] * 18), "--csv-out", str(out)]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("error: at snr=10 the model's values exceed the float range")
            assert err.count("\n") == 1 and not out.exists()

    @pytest.mark.parametrize("r", [13, 20, 30])
    def test_deep_chain_refused_before_any_array(self, tmp_path, F12, P3, capsys, r):
        # r = 13 is the first depth past the bound: M + K = 3^14 > 2^22
        deep = tmp_path / "deep.json"
        dump_chain(FactorChain(F12, P3, r), str(deep))
        assert main(["simulate", "--chain", str(deep), "--snr-db", "0", "--trials", "1"]) == 2
        err = capsys.readouterr().err
        assert "refuse to build" in err and err.count("\n") == 1

    def test_deep_unit_factor_chain_runs(self, tmp_path, F12, capsys):
        # P = [[1]] keeps M and K at 1 and 2 at any depth, and the plan holds
        # one value per path, not a digit per level: r = 2^14 runs
        deep = tmp_path / "deep.json"
        dump_chain(FactorChain(F12, PatternMatrix(np.array([[1]])), 1 << 14), str(deep))
        assert main(["simulate", "--chain", str(deep), "--snr-db", "0", "--trials", "1"]) == 0
        header, row = capsys.readouterr().out.splitlines()[:2]
        got = dict(zip(header.split(","), row.split(",")))
        assert (got["measured_adds"], got["measured_muls"]) == (got["bound_adds"], got["bound_muls"])

    def test_sic_on_unit_factor_chain_matches_recursive(self, tmp_path, F12, capsys):
        # P = [[1]]: cancellation decides every set and, with one class per
        # level, reproduces combining exactly
        chain = tmp_path / "chain.json"
        dump_chain(FactorChain(F12, PatternMatrix(np.array([[1]])), 2), str(chain))
        outs = []
        for detector in ("recursive", "sic"):
            assert main(["simulate", "--chain", str(chain), "--snr-db", "6", "--trials", "50",
                         "--detector", detector]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert outs[1].splitlines()[1] == "6,50,0.31,0.02,0.6,8,16,8,16"

    @pytest.mark.parametrize("r", [8, 9])
    def test_runs_past_the_dense_g_limit(self, tmp_path, F12, P3, capsys, r):
        # G of [1 1] (x) P3^8 has 2^26.6 entries; the receiver never forms it
        chain = tmp_path / "chain.json"
        dump_chain(FactorChain(F12, P3, r), str(chain))
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--chain", str(chain), "--snr-db", "0", "--trials", "2",
                     "--csv-out", str(out)]) == 0
        assert out.read_text().splitlines()[1].startswith("0,2,")

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

    def test_golden_27x54_qpsk_offsets_csv(self, tmp_path, F12, P3):
        # QPSK with a power-offset ramp: received values that are not
        # integers, pinned byte for byte
        chain_file = tmp_path / "chain27.json"
        dump_chain(FactorChain(F12, P3, 3), str(chain_file))
        offs = ",".join(repr(float(v)) for v in np.linspace(0.6, 1.4, 54))
        for detector, digest in (
            ("recursive", "b790a076d3ff887d5ba97b2a79819261898ba95b3a78736206034e79f53e7c38"),
            # the cancellation's sums are not integers either, so this pins
            # the order of its arithmetic
            ("sic", "5478d8c2c238453e32c2fcf612fabadffa9321e88139ad1a3598726cbdb4fe9a"),
        ):
            out = tmp_path / f"qpsk_{detector}.csv"
            code = main(["simulate", "--chain", str(chain_file), "--snr-db", "0,2,4",
                         "--trials", "100", "--seed", "20261018", "--constellation", "qpsk",
                         "--power-offsets", offs, "--detector", detector, "--csv-out", str(out)])
            assert code == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_golden_oracle_9x18_csv(self, tmp_path, chain_file):
        # fixed-seed output of the 2^18-hypothesis MAP oracle as the primary
        # detector, pinned byte for byte
        out = tmp_path / "oracle.csv"
        code = main(["simulate", "--chain", chain_file, "--snr-db", "0,10,20",
                     "--trials", "4", "--seed", "20261018", "--detector", "oracle",
                     "--csv-out", str(out)])
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "e9042909dd46f710138e0a0a8e2ae698132598987e5326eb7f6677d26a09eb7f"
        )

    def test_op_bound_violation_exit_2(self, tmp_path, chain_file, capsys, monkeypatch):
        # a final stage budgeted one addition short: the measured counts
        # exceed the bound, which is reported on one line, not a traceback
        from kronnoma import detector

        real = detector.final_stage_costs

        def short(*args, **kwargs):
            adds, muls = real(*args, **kwargs)
            return adds - 1, muls

        monkeypatch.setattr(detector, "final_stage_costs", short)
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--chain", chain_file, "--snr-db", "0", "--trials", "3",
                     "--csv-out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: measured additions 108 exceed the bound 99\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("r", [20, 30])
    def test_deep_chain_needs_no_per_user_array(self, tmp_path, F12, P3, capsys, r):
        # 2 * 3^30 users: default power offsets are one broadcast value
        deep = tmp_path / "deep.json"
        dump_chain(FactorChain(F12, P3, r), str(deep))
        assert main(["count-ops", "--chain", str(deep)]) == 0
        assert f"final_sets={3**r}\n" in capsys.readouterr().out

    def test_sic_on_r0_chain_exit_2(self, tmp_path, F12, P3, capsys):
        # no budget for a receiver that cannot run: both commands refuse
        chain = tmp_path / "r0.json"
        dump_chain(FactorChain(F12, P3, 0), str(chain))
        for argv in (["count-ops", "--sic"],
                     ["simulate", "--snr-db", "0", "--trials", "1", "--detector", "sic"]):
            assert main(argv + ["--chain", str(chain)]) == 2
            assert capsys.readouterr() == (
                "", "error: cancellation needs at least one recursion level\n"
            )

    def test_too_deep_chain_refused_at_once(self, tmp_path, chain_9x18, capsys):
        # m_p**r at r = 10^8 would run for minutes; the depth alone is refused
        obj = chain_9x18.to_json_dict()
        obj["r"] = 10**8
        deep = tmp_path / "deep.json"
        deep.write_text(json.dumps(obj))
        for argv in (["count-ops"], ["rate", "--baselines", "oma"],
                     ["simulate", "--snr-db", "0", "--trials", "1"]):
            assert main(argv + ["--chain", str(deep)]) == 2
            assert capsys.readouterr().err == "error: recursion depth r must be at most 65536\n"

    def test_unindexable_chain_exit_2(self, tmp_path, F12, P3, capsys):
        deep = tmp_path / "deep.json"
        dump_chain(FactorChain(F12, P3, 3000), str(deep))
        for argv in (["count-ops"], ["simulate", "--snr-db", "0", "--trials", "1"]):
            assert main(argv + ["--chain", str(deep)]) == 2
            assert capsys.readouterr().err == (
                "error: a chain of 2*3^3000 users is too large to index\n"
            )


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

    def test_parser_is_built_once_and_reused(self, chain_file, capsys):
        # a usage error, then another subcommand, through the one parser:
        # each call parses as a first call would
        cli._build_parser.cache_clear()
        assert main(["rate", "--chain", chain_file, "--snr-db-step"]) == 2
        assert "--snr-db-step: expected one argument" in capsys.readouterr().err
        assert main(["count-ops", "--chain", chain_file]) == 0
        out = capsys.readouterr().out
        assert "m_p=3\n" in out and "r=2\n" in out
        assert main(["search", "--mp", "1", "--top", "1"]) == 0
        assert json.loads(capsys.readouterr().out)[0]["weights"] == [1]
        assert cli._build_parser.cache_info().misses == 1
