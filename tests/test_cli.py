"""Tests for the command-line surface: contracts, determinism, exit codes."""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import spinlaw.charseries as cs
import spinlaw.cli as cli
import spinlaw.richardson as rich
import spinlaw.spinalg as sa

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "obstructions.json").read_text()
)


def checkout_env() -> dict:
    """Environment whose PYTHONPATH puts this checkout's src first.

    A spinlaw from another checkout on the path is then not the one run.
    """
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


def run(argv, tmp_path, capsys, name="out"):
    """Run the CLI in-process; return (exit_code, stdout_text, artifact_text)."""
    out = tmp_path / name
    code = cli.main(argv + ["--out", str(out)])
    text = capsys.readouterr().out
    return code, text, out.read_text() if out.exists() else None


class TestCharacter:
    def test_finite_closed_form(self, tmp_path, capsys):
        code, text, artifact = run(
            ["character", "--lo", "(0)@0", "--hi", "(1)@0",
             "--specialize", "s=1,q=1"],
            tmp_path, capsys,
        )
        assert code == 0
        report = json.loads(text)
        assert report["numerator"] == "1+5t+5t^2+t^3"
        assert report["denominator"] == "(1-t)^11"
        assert report["pole_order"] == 11
        assert text == artifact

    def test_series_dimensions(self, tmp_path, capsys):
        code, text, _ = run(
            ["character", "--lo", "(0)@0", "--hi", "(1)@0",
             "--specialize", "s=1,q=1", "--series", "4"],
            tmp_path, capsys,
        )
        assert code == 0
        assert json.loads(text)["series"] == ["1", "16", "126", "672", "2772"]

    def test_latex_format(self, tmp_path, capsys):
        code, text, _ = run(
            ["character", "--lo", "(0)@0", "--hi", "(15)@0",
             "--specialize", "s=1,q=1", "--format", "latex"],
            tmp_path, capsys, name="char.tex",
        )
        assert code == 0
        assert text == "\\frac{1}{(1-t)^{5}}\n"

    def test_latex_format_renders_only_what_it_writes(self, tmp_path, capsys, monkeypatch):
        # the numerator once, in TeX: no plain text, series or pole order
        calls = []
        real = cs.format_laurent
        monkeypatch.setattr(cs, "format_laurent",
                            lambda p, **kw: calls.append(kw) or real(p, **kw))
        code, text, artifact = run(
            ["character", "--lo", "(0)@0", "--hi", "(1)@0",
             "--specialize", "s=1,q=1", "--format", "latex"],
            tmp_path, capsys, name="char.tex",
        )
        assert code == 0 and text == artifact == "\\frac{1+5t+5t^{2}+t^{3}}{(1-t)^{11}}\n"
        assert calls == [{"tex": True}]

    def test_latex_format_refuses_series(self, tmp_path, capsys):
        # a latex artifact has no place for the series: exit 2, nothing written
        code, text, artifact = run(
            ["character", "--lo", "(0)@0", "--hi", "(15)@0",
             "--specialize", "s=1,q=1", "--series", "4", "--format", "latex"],
            tmp_path, capsys, name="char.tex",
        )
        assert (code, text, artifact) == (2, "", None)

    def test_partial_specialization_reduces(self, tmp_path, capsys):
        code, text, _ = run(
            ["character", "--lo", "(0)@0", "--hi", "(15)@0",
             "--specialize", "s=1"],
            tmp_path, capsys,
        )
        assert code == 0
        report = json.loads(text)
        assert report["numerator"] == "1"
        assert report["denominator"] == "(1-t)^5"

    def test_equivariant_denominator_names_variables(self, tmp_path, capsys):
        code, text, _ = run(
            ["character", "--lo", "(0)@0", "--hi", "(12)@0"],
            tmp_path, capsys,
        )
        assert code == 0
        report = json.loads(text)
        assert report["numerator"] == "1"
        assert "s1^-1*s2^-1*s3^-1*s4^-1*s5^-1*t" in report["denominator"]

    def test_level_40000_series_artifact_pinned(self, tmp_path, capsys):
        # the numerator reaches q^320000, past what 16-bit exponent fields
        # hold; the SHA-256 is that of the artifact before the packed kernel
        code, text, artifact = run(
            ["character", "--lo", "(0)@40000", "--hi", "(1)@40000",
             "--series", "3"],
            tmp_path, capsys,
        )
        assert code == 0
        assert "q^320000" in json.loads(text)["numerator"]
        assert hashlib.sha256(artifact.encode()).hexdigest() == (
            "fd068fe9fa67180557c85011ece1285fc32b2cef2fa4fcca0137fc71ed7c22f5"
        )

    def test_full_flagship_character_artifact_pinned(self, tmp_path, capsys):
        # 10,518 numerator terms over 32 factors; the SHA-256 is that of the
        # artifact the transfer climb with reduced() wrote
        code, text, artifact = run(
            ["character", "--lo", "(0)@0", "--hi", "(1)@1"], tmp_path, capsys
        )
        assert code == 0 and text == artifact
        assert json.loads(text)["denominator"].count("(1-") == 32
        assert hashlib.sha256(artifact.encode()).hexdigest() == (
            "ce4ddf3c97ad69baf2e7342d7ee5eb0f2dd399aecd98553004808fd7eb5f7fa7"
        )


class TestDiagramsAndTables:
    def test_hasse_dot_window_has_32_nodes(self, tmp_path, capsys):
        code, text, _ = run(
            ["hasse", "--window", "0..1", "--format", "dot"],
            tmp_path, capsys, name="hasse.dot",
        )
        assert code == 0
        assert text.count("[label=") == 32
        assert text.startswith("digraph hasse {")

    def test_hasse_json_default_window(self, tmp_path, capsys):
        code, text, _ = run(["hasse"], tmp_path, capsys)
        assert code == 0
        report = json.loads(text)
        assert report["node_count"] == 16
        assert report["edge_count"] == 20

    def test_hasse_csv(self, tmp_path, capsys):
        code, text, _ = run(
            ["hasse", "--format", "csv"], tmp_path, capsys, name="hasse.csv"
        )
        assert code == 0
        lines = text.strip().split("\n")
        assert lines[0] == "kind,id,tag,level,ht,dst"
        assert len(lines) == 1 + 16 + 20

    def test_relations_csv(self, tmp_path, capsys):
        code, text, _ = run(
            ["relations", "--lo", "(0)@0", "--hi", "(1)@0",
             "--format", "csv"],
            tmp_path, capsys, name="rel.csv",
        )
        assert code == 0
        lines = text.strip().split("\n")
        assert len(lines) == 11
        assert all(",True," in line for line in lines[1:])

    def test_obstructions_match_golden(self, tmp_path, capsys):
        code, text, _ = run(
            ["obstructions", "--lo", "(0)@0", "--hi", "(1)@0"],
            tmp_path, capsys,
        )
        assert code == 0
        report = json.loads(text)
        assert report["pair_count"] == 16
        labels = {e["label"] for e in report["pairs"]}
        assert labels == {"o_" + key for key in GOLDEN["finite"]}
        assert all(e["route"] == "direct" for e in report["pairs"])

    def test_dims(self, tmp_path, capsys):
        code, text, _ = run(
            ["dims", "--lo", "(0)@0", "--hi", "(5)@0"], tmp_path, capsys
        )
        assert code == 0
        report = json.loads(text)
        assert (report["chain_len"], report["ht_diff"], report["pole_order"]) \
            == (7, 6, 7)


class TestChecks:
    def test_groebner(self, tmp_path, capsys):
        code, text, _ = run(
            ["groebner-check", "--lo", "(0)@0", "--hi", "(1)@0"],
            tmp_path, capsys,
        )
        assert code == 0
        report = json.loads(text)
        assert report["ok"] and report["nonzero_remainders"] == []

    def test_fierz_finite_default(self, tmp_path, capsys):
        code, text, _ = run(["fierz-check"], tmp_path, capsys)
        assert code == 0
        report = json.loads(text)
        assert report["identity_count"] == 16
        assert set(report["residues"].values()) == {"0"}

    def test_fierz_shifted_window_default_modes(self, tmp_path, capsys):
        # the default modes are the window's own, 3·lo..3·hi
        code, text, _ = run(
            ["fierz-check", "--window", "3..4"], tmp_path, capsys
        )
        assert code == 0
        report = json.loads(text)
        assert report["modes"] == [9, 10, 11, 12]
        assert set(report["residues"].values()) == {"0"}

    def test_fierz_window_modes(self, tmp_path, capsys):
        code, text, _ = run(
            ["fierz-check", "--window", "0..1", "--modes", "0,1"],
            tmp_path, capsys,
        )
        assert code == 0
        assert json.loads(text)["identity_count"] == 32

    def test_straightened(self, tmp_path, capsys):
        code, text, _ = run(
            ["straightened-check", "--lo", "(0)@0", "--hi", "(5)@0",
             "--k-max", "3"],
            tmp_path, capsys,
        )
        assert code == 0
        report = json.loads(text)
        assert report["dimensions_ok"] and report["buchberger_ok"]
        assert report["shapes_ok"]

    def test_delannoy(self, tmp_path, capsys):
        code, text, _ = run(
            ["delannoy-check", "--r-max", "1", "--k-max", "4"],
            tmp_path, capsys,
        )
        assert code == 0
        report = json.loads(text)
        assert report["rows"][3] == [1, 5, 5, 1]
        assert report["targets"] == ["(15)@0", "(5)@0"]

    def test_weyl(self, tmp_path, capsys):
        code, text, _ = run(["weyl-check"], tmp_path, capsys)
        assert code == 0
        report = json.loads(text)
        assert report["reflection_graph"]["nodes"] == 32
        assert report["regenerated_cover_count"] == \
            report["reflection_graph"]["edges"]

    def test_weyl_affine_orbit_seeded_at_the_window_bottom(self, tmp_path, capsys):
        code, text, _ = run(["weyl-check", "--window", "3..6"], tmp_path, capsys)
        assert code == 0
        report = json.loads(text)
        assert report["ok"] is True and report["orbit_check"]["affine_ok"] is True
        assert report["orbit_check"]["affine_orbit_size"] == 2560

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["groebner-check", "--lo", "(0)@0", "--hi", "(1)@3"],
             "0fdcb8ae9221aab5cee66fb5150e14dcf2c34919c80225daee9893c417492a50"),
            (["fierz-check", "--window", "0..3"],
             "5655a271f1a8792b343ef1925717f106c8834fc4ee12c316bc028a68e2c237ae"),
            (["weyl-check", "--window", "0..3"],
             "8fe7fd17549ba494ca3d061c1b888ec037eeb9c951dc46f6750968b0610ab226"),
            (["straightened-check", "--lo", "(0)@0", "--hi", "(1)@1", "--k-max", "4"],
             "96a76d30aa262e49b7ac260db43b35fb5d8fced8b5d486e274aaebeae15d98ad"),
            (["relations", "--lo", "(0)@0", "--hi", "(1)@2", "--format", "csv"],
             "a17fb7412ab34fc99b7bd6b6a0f47f0644b7fdca3c26335b71f406d09429bd90"),
            (["regseq-check", "--lo", "(0)@0", "--hi", "(1)@0", "--d-max", "4"],
             "dc6cb0ed23d03a857803535fbec963081c9abf880cfd0398d2bef8d73885f841"),
            (["relations", "--lo", "(0)@0", "--hi", "(1)@2"],
             "588deaf8f7f906d08edcd5c77d2f2e43e6d3cb18d25760929de8d95f0d8934d3"),
            (["obstructions", "--lo", "(0)@0", "--hi", "(1)@3"],
             "582fdb42ba5564c7257aa72550e9f1a8ffc837f1ab071b7882146c035d32d27d"),
            (["hasse", "--window", "-1..2", "--format", "csv"],
             "76ba76ce6d79e283e7c56b6be66592c7a258052e5c3bafa3cdf146ee4609e3d6"),
            (["character", "--lo", "(0)@0", "--hi", "(1)@1", "--specialize", "q=1"],
             "161185e095163522c36e2589c096e9030a62d5776c07ad05b4f11042615e23c4"),
            (["character", "--lo", "(14)@0", "--hi", "(14)@2", "--specialize", "s=1"],
             "a675b3d79da10ef352776e091f6388fc2c15e0b26e43f2822968547a86fb0c68"),
            (["character", "--lo", "(0)@0", "--hi", "(1)@1", "--specialize", "s=1"],
             "1dc067266fa9d8f0dcc8550a4955e111f328f4a646928ac2d41e200459fe3a07"),
            (["character", "--lo", "(0)@0", "--hi", "(5)@1"],
             "dd1f9a01de324cadef0198e6908c3860caa26b476bed0ed378fc7ac015da7eaf"),
            (["character", "--lo", "(23)@0", "--hi", "(5)@2", "--specialize", "s=1",
              "--series", "4"],
             "545359780ceeded7f65ecfebabde54f591465ae44919c1680d3d7ac7c6754d2c"),
            (["character", "--lo", "(0)@90000000", "--hi", "(1)@90000000",
              "--specialize", "s=1"],
             "ed088f6c17403bff04dd6e8b322d1ec550c9830c23054f3edeb07ad0cbd37e3d"),
            (["obstructions", "--lo", "(0)@0", "--hi", "(1)@1", "--format", "csv"],
             "69ce0d38404d484cc836c564f96028d7829a24a0594c345ca5eb70ef1775660e"),
            (["character", "--lo", "(0)@0", "--hi", "(1)@1", "--specialize", "s=1",
              "--format", "latex"],
             "97d45c56399c31f4e734ff53d5b6ae31a71296f4e9738579672b3dbe59c81784"),
            (["regseq-check", "--lo", "(0)@0", "--hi", "(1)@1", "--d-max", "4"],
             "f0f36d1467c8a830383043319d9587b41d64e83e0618d4e68a8b0195c86bff94"),
            (["character", "--lo", "(0)@0", "--hi", "(1)@1"],
             "ce4ddf3c97ad69baf2e7342d7ee5eb0f2dd399aecd98553004808fd7eb5f7fa7"),
            (["character", "--lo", "(0)@0", "--hi", "(1)@1", "--format", "latex"],
             "b9f6c88ef355d0469ec2635f20caaf83e1f30e7b6af64bb3aaf82ac5fd36e810"),
            (["character", "--lo", "(0)@0", "--hi", "(1)@0", "--specialize", "q=1",
              "--format", "latex"],
             "e92f5167ff5a31b1546f89ba2ec7dd20a382446b8be53605740e13962b168efe"),
        ],
        ids=["groebner-(1)@3", "fierz-0..3", "weyl-0..3", "straightened-(1)@1",
             "relations-(1)@2-csv", "regseq-(1)@0-d4", "relations-(1)@2",
             "obstructions-(1)@3", "hasse-(-1..2)-csv", "character-(1)@1-q1",
             "character-(14)@0-(14)@2-s1", "character-(1)@1-s1", "character-(5)@1",
             "character-(23)@0-(5)@2-s1-series4", "character-(1)@90000000-s1",
             "obstructions-(1)@1-csv", "character-(1)@1-s1-latex", "regseq-(1)@1-d4",
             "character-(1)@1", "character-(1)@1-latex", "character-(1)@0-q1-latex"],
    )
    def test_check_artifacts_pinned(self, argv, digest, tmp_path, capsys):
        # SHA-256s of the artifacts written by the sort-every-step reduce,
        # the term-by-term Fierz residue sum, the unmemoised Weyl orbits, the
        # straightened-law loop formerly inside the CLI, the quadrics of the
        # wedge helpers that clifford_apply replaced and the graded ranks
        # that eliminated every row; and of the hand-typed cover arrows, the
        # Fierz tables probed coefficient by coefficient, the re-sorted
        # relations and the second walk for the pole order; and of the
        # characters reduced under the modular screen the line sums replaced,
        # the latex character that built the JSON report too and the regular
        # sequence read off the table over every prefix of the forms; and of
        # the characters rendered from exponent tuples and Fractions, joined
        # by "+" with "+-" folded to "-" afterwards
        code, text, artifact = run(argv, tmp_path, capsys)
        assert code == 0 and text == artifact
        assert hashlib.sha256(artifact.encode()).hexdigest() == digest

    def test_regseq(self, tmp_path, capsys):
        code, text, _ = run(
            ["regseq-check", "--lo", "(0)@0", "--hi", "(5)@0",
             "--d-max", "3"],
            tmp_path, capsys,
        )
        assert code == 0
        assert json.loads(text)["ok"] is True

    @pytest.mark.parametrize(
        "spaced, glued, window",
        [
            (["hasse", "--window", "-2..-1"], ["hasse", "--window=-2..-1"], [-2, -1]),
            (["weyl-check", "--window", "-1..0"], ["weyl-check", "--window=-1..0"],
             [-1, 0]),
            (["fierz-check", "--window", "-1..0", "--modes", "-3,-2"],
             ["fierz-check", "--window=-1..0", "--modes=-3,-2"], [-1, 0]),
        ],
        ids=["hasse", "weyl-check", "fierz-check"],
    )
    def test_negative_window_parses_with_a_space(self, spaced, glued, window,
                                                 tmp_path, capsys):
        # a value that begins with "-" after its option, as after "="
        code, text, artifact = run(spaced, tmp_path, capsys, "spaced")
        assert code == 0 and text == artifact
        assert json.loads(artifact)["window"] == window
        assert run(glued, tmp_path, capsys, "glued") == (code, text, artifact)


# One cheap run of every subcommand, and the parsed input main must echo.
CONTRACT_CASES = [
    (["hasse"], {"window": [0, 0]}),
    (["relations", "--lo", "(0)@0", "--hi", "(5)@0"],
     {"interval": ["(0)@0", "(5)@0"]}),
    (["groebner-check", "--lo", "(0)@0", "--hi", "(5)@0"],
     {"interval": ["(0)@0", "(5)@0"]}),
    (["fierz-check"], {"window": [0, 0]}),
    (["straightened-check", "--lo", "(0)@0", "--hi", "(5)@0"],
     {"interval": ["(0)@0", "(5)@0"]}),
    (["obstructions", "--lo", "(0)@0", "--hi", "(5)@0"],
     {"interval": ["(0)@0", "(5)@0"]}),
    (["dims", "--lo", "(0)@0", "--hi", "(5)@0"],
     {"interval": ["(0)@0", "(5)@0"]}),
    (["character", "--lo", "(0)@0", "--hi", "(5)@0"],
     {"interval": ["(0)@0", "(5)@0"]}),
    (["delannoy-check", "--r-max", "0", "--k-max", "2"], {}),
    (["weyl-check", "--window", "0..0"], {"window": [0, 0]}),
    (["regseq-check", "--lo", "(0)@0", "--hi", "(5)@0"],
     {"interval": ["(0)@0", "(5)@0"]}),
]


class TestReportContract:
    def test_cases_cover_every_subcommand(self):
        assert sorted(argv[0] for argv, _ in CONTRACT_CASES) == sorted(cli.COMMANDS)

    def test_readme_command_table_names_every_subcommand(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        table = readme.split("| command | what it does |\n| --- | --- |\n")[1]
        rows = table[: table.index("\n\n")].splitlines()
        names = {re.match(r"\| `([^`]+)` \|", row).group(1) for row in rows}
        [sub] = [a for a in cli.build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
        assert names == set(cli.COMMANDS) == set(sub.choices)

    @pytest.mark.parametrize(
        "argv, parsed", CONTRACT_CASES, ids=[argv[0] for argv, _ in CONTRACT_CASES]
    )
    def test_envelope_and_exit_code(self, argv, parsed, tmp_path, capsys):
        code, text, artifact = run(argv, tmp_path, capsys)
        assert text == artifact
        report = json.loads(artifact)
        assert report["schema_version"] == 1
        assert report["command"] == argv[0]
        assert {k: report[k] for k in ("interval", "window") if k in report} == parsed
        assert (code == 0) == bool(report.get("ok", True))
        assert code in (0, 3)


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["character", "--lo", "(0)@0", "--hi", "bogus"],
            ["character", "--lo", "(1)@0", "--hi", "(0)@0"],
            ["character", "--lo", "(0)@0", "--hi", "(1)@0",
             "--specialize", "s=2"],
            ["character", "--lo", "(0)@0", "--hi", "(1)@0",
             "--specialize", "t=1"],
            ["character", "--lo", "(0)@0", "--hi", "(1)@0",
             "--specialize", "s=2,s=1"],
            ["hasse", "--window", "1..0"],
            ["hasse", "--window", "01"],
            ["regseq-check", "--lo", "(0)@0", "--hi", "(5)@0", "--d-max", "1"],
            # vacuous runs: no degree to check, or modes with no terms
            ["straightened-check", "--lo", "(0)@0", "--hi", "(5)@0",
             "--k-max", "-1"],
            ["fierz-check", "--window", "0..0", "--modes", "99"],
            ["fierz-check", "--window", "0..1", "--modes", "0,4"],
            ["fierz-check", "--window", "3..4", "--modes", "0"],
            # exponents past the packed range |e| < 2^31 of charseries
            ["character", "--lo", "(0)@200000000", "--hi", "(1)@200000000"],
            ["character", "--lo", "(0)@1000000000", "--hi", "(0)@1000000000",
             "--series", "3"],
        ],
    )
    def test_config_errors_exit_2(self, argv, tmp_path, capsys):
        code = cli.main(argv + ["--out", str(tmp_path / "x")])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err
        assert not (tmp_path / "x").exists()

    def test_empty_interval_names_both_endpoints(self, tmp_path, capsys):
        code = cli.main(["dims", "--lo", "(1)@0", "--hi", "(0)@0",
                         "--out", str(tmp_path / "x")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: empty interval: (1)@0 is not <= (0)@0\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("exc", [MemoryError, RecursionError])
    def test_resource_errors_exit_2(self, exc, tmp_path, capsys, monkeypatch):
        def exhausted(args, window):
            raise exc("synthetic")

        monkeypatch.setitem(cli.COMMANDS, "hasse", exhausted)
        code = cli.main(["hasse", "--out", str(tmp_path / "x")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:") and exc.__name__ in captured.err
        assert captured.out == ""
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("via_env", [False, True], ids=["--out", "SPINLAW_OUT"])
    def test_unwritable_artifact_path_exits_2(self, via_env, tmp_path, capsys,
                                              monkeypatch):
        missing = tmp_path / "missing"
        if via_env:
            monkeypatch.setenv("SPINLAW_OUT", str(missing))
            argv = ["hasse"]
        else:
            argv = ["hasse", "--out", str(missing / "x.json")]
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:") and captured.out == ""
        assert not missing.exists()

    @pytest.mark.parametrize(
        "text, reason",
        [("s", "expected name=value"), ("s=2,s=1", "s given twice"),
         ("s=x", "value is not a number")],
    )
    def test_specialize_errors_name_the_item(self, text, reason):
        with pytest.raises(ValueError) as exc:
            cli.parse_specialize(text)
        assert reason in str(exc.value) and repr(text.split(",")[-1]) in str(exc.value)

    @pytest.mark.parametrize(
        "text, item, reason",
        [("0,0", "0", "0 given twice"), ("1,,2", "", "not an integer"),
         ("1,x", "x", "not an integer")],
    )
    def test_modes_errors_name_the_item(self, text, item, reason, tmp_path, capsys):
        with pytest.raises(ValueError) as exc:
            cli.parse_modes(text)
        assert reason in str(exc.value) and repr(item) in str(exc.value)
        code = cli.main(["fierz-check", "--window", "0..0", "--modes", text,
                         "--out", str(tmp_path / "x")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: {exc.value}\n" and captured.out == ""
        assert not (tmp_path / "x").exists()

    def test_unknown_command_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["no-such-command"])
        assert exc.value.code == 2

    def test_property_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(rich, "regular_sequence_check",
                            lambda iv, d_max: False)
        code, text, artifact = run(
            ["regseq-check", "--lo", "(0)@0", "--hi", "(5)@0",
             "--d-max", "2"],
            tmp_path, capsys,
        )
        assert code == 3
        assert json.loads(text)["ok"] is False
        assert artifact == text

    @pytest.mark.parametrize("flag", ["finite_ok", "affine_ok", "l_image_ok"])
    def test_weyl_orbit_failure_exits_3(self, flag, tmp_path, capsys,
                                        monkeypatch):
        real = sa.weyl_orbit_check
        monkeypatch.setattr(
            sa, "weyl_orbit_check", lambda window: {**real(window), flag: False}
        )
        code, text, artifact = run(["weyl-check"], tmp_path, capsys)
        assert code == 3
        report = json.loads(text)
        assert report["ok"] is False and report["orbit_check"][flag] is False
        assert artifact == text

    def test_hard_failure_exits_3_with_report(self, tmp_path, capsys,
                                              monkeypatch):
        def boom(iv):
            raise RuntimeError("uncovered obstruction pair: synthetic")

        monkeypatch.setattr(rich, "obstruction_coverage", boom)
        code, text, artifact = run(
            ["obstructions", "--lo", "(0)@0", "--hi", "(1)@0"],
            tmp_path, capsys,
        )
        assert code == 3
        report = json.loads(text)
        assert report["ok"] is False
        assert "uncovered" in report["error"]
        assert artifact == text


class TestDeterminismAndPlumbing:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        _, first, a1 = run(
            ["obstructions", "--lo", "(0)@0", "--hi", "(1)@1"],
            tmp_path, capsys, name="a",
        )
        _, second, a2 = run(
            ["obstructions", "--lo", "(0)@0", "--hi", "(1)@1"],
            tmp_path, capsys, name="b",
        )
        assert first == second
        assert a1 == a2

    def test_env_output_directory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SPINLAW_OUT", str(tmp_path))
        monkeypatch.chdir(tmp_path)
        code = cli.main(["dims", "--lo", "(0)@0", "--hi", "(15)@0"])
        text = capsys.readouterr().out
        assert code == 0
        assert (tmp_path / "dims.json").read_text() == text

    def test_console_script_end_to_end(self, tmp_path):
        # Run this checkout's [project.scripts] entry point the way a
        # generated console script does, without needing an install.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            entry = tomllib.load(fh)["project"]["scripts"]["spinlaw"]
        assert entry == "spinlaw.cli:main"
        script = (
            "import sys; from spinlaw.cli import main; "
            "sys.argv[0] = 'spinlaw'; sys.exit(main())"
        )
        proc = subprocess.run(
            [
                sys.executable, "-c", script, "character",
                "--lo", "(0)@0", "--hi", "(1)@0",
                "--specialize", "s=1,q=1",
                "--out", str(tmp_path / "char.json"),
            ],
            capture_output=True, text=True, env=checkout_env(),
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["numerator"] == "1+5t+5t^2+t^3"
        assert (tmp_path / "char.json").read_text() == proc.stdout

    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [
                sys.executable, "-c",
                "import sys; from spinlaw.cli import main; "
                "sys.exit(main(sys.argv[1:]))",
                "delannoy-check", "--r-max", "0", "--k-max", "2",
                "--out", str(tmp_path / "d.json"),
            ],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["ok"] is True

    def test_python_dash_m_runs_cli_once(self, tmp_path):
        # `python -m spinlaw.cli` must not find the module already imported
        # by the package, which runs it twice and warns
        proc = subprocess.run(
            [
                sys.executable, "-m", "spinlaw.cli",
                "delannoy-check", "--r-max", "0", "--k-max", "2",
                "--out", str(tmp_path / "d.json"),
            ],
            capture_output=True, text=True, env=checkout_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert (tmp_path / "d.json").read_text() == proc.stdout

    @pytest.mark.parametrize(
        "argv",
        [
            ["character", "--lo", "(0)@0", "--hi", "(1)@1",
             "--specialize", "q=1"],
            ["relations", "--lo", "(0)@0", "--hi", "(1)@1", "--format", "csv"],
            ["hasse", "--window", "0..1", "--format", "dot"],
        ],
        ids=["character", "relations", "hasse"],
    )
    def test_artifacts_identical_across_hash_seeds(self, argv, tmp_path):
        # str hashing, hence set and dict-of-set iteration order, changes with
        # PYTHONHASHSEED; no artifact may depend on it
        artifacts = []
        for seed in ("0", "12345"):
            out = tmp_path / f"artifact-{seed}"
            proc = subprocess.run(
                [sys.executable, "-m", "spinlaw.cli", *argv, "--out", str(out)],
                capture_output=True, env={**checkout_env(), "PYTHONHASHSEED": seed},
            )
            assert proc.returncode == 0, proc.stderr
            assert out.read_bytes() == proc.stdout
            artifacts.append(out.read_bytes())
        assert artifacts[0] == artifacts[1]


# What each subcommand may load of the package: the layers it runs and no more.
CHARACTER_PATH = {"spinlaw", "spinlaw.cli", "spinlaw.weightlattice",
                  "spinlaw.charseries"}
LATTICE_PATH = {"spinlaw", "spinlaw.cli", "spinlaw.weightlattice"}
SPINALG_PATH = {"spinlaw", "spinlaw.cli", "spinlaw.weightlattice",
                "spinlaw.polyring", "spinlaw.spinalg"}
STRAIGHTEN_PATH = SPINALG_PATH | {"spinlaw.richardson"}

LOADED_MODULES = """\
import json, sys
from spinlaw.cli import main
try:
    main(sys.argv[2:])
except SystemExit:  # --help
    pass
with open(sys.argv[1], "w") as fh:
    json.dump(sorted(sys.modules), fh)
"""


class TestImportSets:
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["character", "--lo", "(0)@0", "--hi", "(1)@0"], CHARACTER_PATH),
            (["dims", "--lo", "(0)@0", "--hi", "(1)@0"], CHARACTER_PATH),
            (["delannoy-check", "--r-max", "1", "--k-max", "2"], CHARACTER_PATH),
            (["hasse", "--window", "0..1"], LATTICE_PATH),
            (["--help"], LATTICE_PATH),
            (["straightened-check", "--lo", "(0)@0", "--hi", "(5)@0", "--k-max", "2"],
             STRAIGHTEN_PATH),
            (["weyl-check", "--window", "0..0"], SPINALG_PATH),
            (["fierz-check", "--window", "0..0"], SPINALG_PATH),
        ],
        ids=["character", "dims", "delannoy-check", "hasse", "help",
             "straightened-check", "weyl-check", "fierz-check"],
    )
    def test_subcommand_loads_only_its_layers(self, argv, expected, tmp_path):
        listing = tmp_path / "modules.json"
        proc = subprocess.run(
            [sys.executable, "-c", LOADED_MODULES, str(listing), *argv],
            capture_output=True, text=True, env=checkout_env(), cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = set(json.loads(listing.read_text()))
        assert {m for m in loaded if m.split(".")[0] == "spinlaw"} == expected
        if expected == LATTICE_PATH:
            # only --specialize and the algebra layers read Fractions
            assert "fractions" not in loaded
        bare = subprocess.run(
            [sys.executable, "-c",
             "import sys; print('dataclasses' in sys.modules)"],
            capture_output=True, text=True, check=True,
        )
        if bare.stdout.strip() == "False":
            # dataclasses imports inspect, which imports ast and dis; no layer
            # imports it
            assert "dataclasses" not in loaded
