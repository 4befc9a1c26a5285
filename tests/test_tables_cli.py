"""Reproduction harness, result cache, report emitters, and the CLI."""

import dataclasses
import json

import pytest

from padegalois.cache import (
    CacheMismatchError,
    ResultCache,
    cache_key,
    default_cache_dir,
)
from padegalois.cli import main
from padegalois.galois import GaloisIdentification, classify, verify_identification
from padegalois.polynomials import int_poly_from_strings, parse_int_poly
from padegalois.reporting import emit
from padegalois.tables import (
    TABLES,
    TableError,
    normalize_table_id,
    reproduce,
)

import padegalois.cache
import padegalois.factor
import padegalois.tables


@pytest.fixture(scope="session")
def warm_cache_dir(tmp_path_factory):
    """Cache directory pre-populated with the Atanh2Pade cells."""
    directory = tmp_path_factory.mktemp("pgcache")
    cache = ResultCache(directory)
    reproduce("Atanh2Pade", cache=cache)
    return directory


class TestNormalizeTableId:
    def test_camel_case_passthrough(self):
        assert normalize_table_id("ExpPade") == "ExpPade"

    def test_kebab_and_underscore(self):
        assert normalize_table_id("exp-pade") == "ExpPade"
        assert normalize_table_id("schur_trunc") == "SchurTrunc"
        assert normalize_table_id("INVSQRTTRUNC") == "InvSqrtTrunc"

    def test_unknown_raises(self):
        with pytest.raises(TableError):
            normalize_table_id("no-such-table")


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        calls = []

        def thunk():
            calls.append(1)
            return {"answer": 42}

        first = cache.get_or_compute("op", {"x": 1}, thunk)
        second = cache.get_or_compute("op", {"x": 1}, thunk)
        assert first == second == {"answer": 42}
        assert len(calls) == 1
        assert cache.misses == 1 and cache.hits == 1
        assert len(list(tmp_path.iterdir())) == 1

    def test_key_depends_on_operation_and_payload(self):
        base = cache_key("op", {"x": 1})
        assert cache_key("other", {"x": 1}) != base
        assert cache_key("op", {"x": 2}) != base

    def test_version_bump_invalidates(self, monkeypatch):
        base = cache_key("op", {"x": 1})
        monkeypatch.setattr(padegalois.cache, "__version__", "99.0.0")
        assert cache_key("op", {"x": 1}) != base

    def test_verify_recomputes_and_accepts_match(self, tmp_path):
        cache = ResultCache(tmp_path, verify=True)
        value = cache.get_or_compute("op", {"x": 1}, lambda: [1, 2, 3])
        again = cache.get_or_compute("op", {"x": 1}, lambda: [1, 2, 3])
        assert value == again == [1, 2, 3]

    def test_verify_raises_on_divergence(self, tmp_path):
        plain = ResultCache(tmp_path)
        plain.get_or_compute("op", {"x": 1}, lambda: "old")
        checking = ResultCache(tmp_path, verify=True)
        with pytest.raises(CacheMismatchError):
            checking.get_or_compute("op", {"x": 1}, lambda: "new")

    def test_corrupt_entry_recomputed_with_warning(self, tmp_path, capsys):
        cache = ResultCache(tmp_path)
        cache.get_or_compute("op", {"x": 1}, lambda: "good")
        entry = next(tmp_path.iterdir())
        entry.write_text("{not json", encoding="utf-8")
        value = cache.get_or_compute("op", {"x": 1}, lambda: "good")
        assert value == "good"
        assert "corrupt" in capsys.readouterr().err
        # the entry was rewritten and is valid again
        fresh = ResultCache(tmp_path)
        fresh.get_or_compute("op", {"x": 1}, lambda: "good")
        assert fresh.hits == 1

    def test_writers_of_one_key_do_not_collide(self, monkeypatch, tmp_path):
        # a second writer stores the same key while the first is still
        # writing: each must write its own temporary file
        original = json.dump
        nested = []

        def dump_with_a_second_writer(obj, fh, **kwargs):
            if not nested:
                nested.append(1)
                other = ResultCache(tmp_path)
                assert other.get_or_compute("op", {"x": 1}, lambda: "same") == "same"
            original(obj, fh, **kwargs)

        monkeypatch.setattr(json, "dump", dump_with_a_second_writer)
        cache = ResultCache(tmp_path)
        assert cache.get_or_compute("op", {"x": 1}, lambda: "same") == "same"
        monkeypatch.undo()
        assert nested
        assert [p.suffix for p in tmp_path.iterdir()] == [".json"]
        fresh = ResultCache(tmp_path)
        assert fresh.get_or_compute("op", {"x": 1}, lambda: "other") == "same"
        assert fresh.hits == 1

    def test_default_dir_honors_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("PADEGALOIS_CACHE_DIR", str(tmp_path / "via-env"))
        assert default_cache_dir() == tmp_path / "via-env"


class TestReproduce:
    def test_report_shape_and_summary(self, warm_cache_dir):
        report = reproduce("Atanh2Pade", cache=ResultCache(warm_cache_dir))
        assert report["schema"] == "padegalois-report/1"
        assert report["table"] == "Atanh2Pade"
        assert report["columns"] == ["G(P_n)", "G(Q_n)"]
        summary = report["summary"]
        assert summary["cells"] == 16
        assert summary["proven"] == 15
        assert summary["consistent"] == 1
        assert summary["mismatches"] == 0
        assert summary["status"] == "pass"
        first = report["rows"][0]
        assert first["order"] == 7
        assert {c["observed"] for c in first["cells"]} == {"C2"}

    def test_unknown_table(self):
        with pytest.raises(TableError):
            reproduce("Nonsense")

    def test_deterministic_bytes(self, warm_cache_dir):
        r1 = reproduce("Atanh2Pade", cache=ResultCache(warm_cache_dir))
        r2 = reproduce("Atanh2Pade", cache=ResultCache(warm_cache_dir))
        for fmt in ("text", "json", "csv"):
            assert emit(r1, fmt) == emit(r2, fmt)

    def test_second_run_is_pure_cache(self, warm_cache_dir):
        cache = ResultCache(warm_cache_dir)
        reproduce("Atanh2Pade", cache=cache)
        assert cache.hits == 16
        assert cache.misses == 0

    def test_cached_run_never_classifies(self, warm_cache_dir, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("classification ran despite a warm cache")

        monkeypatch.setattr(padegalois.tables, "classify", boom)
        report = reproduce("Atanh2Pade", cache=ResultCache(warm_cache_dir))
        assert report["summary"]["status"] == "pass"

    def test_verify_replays_proven_evidence(self, warm_cache_dir):
        report = reproduce(
            "Atanh2Pade", cache=ResultCache(warm_cache_dir), verify=True
        )
        verified = [
            cell
            for row in report["rows"]
            for cell in row["cells"]
            if "verified" in cell
        ]
        # 15 exact identifications plus one proven embedding
        assert len(verified) == 16
        assert all(cell["verified"] for cell in verified)
        assert report["summary"]["status"] == "pass"

    def test_tampered_expectation_yields_mismatch(
        self, warm_cache_dir, monkeypatch
    ):
        spec = TABLES["Atanh2Pade"]
        row = spec.rows[0]
        bad_cell = dataclasses.replace(row.cells[0], label="S6", engine="S6")
        bad_row = dataclasses.replace(
            row, cells=(bad_cell,) + row.cells[1:]
        )
        bad_spec = dataclasses.replace(
            spec, rows=(bad_row,) + spec.rows[1:]
        )
        monkeypatch.setitem(padegalois.tables.TABLES, "Atanh2Pade", bad_spec)
        report = reproduce("Atanh2Pade", cache=ResultCache(warm_cache_dir))
        assert report["summary"]["mismatches"] == 1
        assert report["summary"]["status"] == "fail"
        first = report["rows"][0]["cells"][0]
        assert first["status"] == "mismatch"
        assert first["expected"] == "S6"
        assert first["observed"] == "C2"

    def test_schur_frozen_labels_cross_check(self, monkeypatch):
        spec = TABLES["SchurTrunc"]
        row = spec.rows[0]  # N=2, label S2
        bad_row = dataclasses.replace(
            row, cells=(dataclasses.replace(row.cells[0], label="A2"),)
        )
        bad_spec = dataclasses.replace(spec, rows=(bad_row,) + spec.rows[1:])
        monkeypatch.setitem(padegalois.tables.TABLES, "SchurTrunc", bad_spec)
        with pytest.raises(RuntimeError, match="parity rule"):
            reproduce("SchurTrunc")

    def test_tampered_cache_poly_detected(self, tmp_path):
        cache = ResultCache(tmp_path)
        reproduce("SinSinh", cache=cache)
        for entry in tmp_path.iterdir():
            data = json.loads(entry.read_text(encoding="utf-8"))
            data["value"]["poly"] = "x + 1"
            entry.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(RuntimeError, match="disagrees with the pipeline"):
            reproduce("SinSinh", cache=ResultCache(tmp_path))


class TestVerdictRoundTrip:
    def test_json_round_trip_preserves_verdict(self):
        ident = classify(parse_int_poly("x^3 - 2"))
        blob = json.dumps(ident.to_dict(), sort_keys=True)
        back = GaloisIdentification.from_dict(json.loads(blob))
        assert back.group_name == ident.group_name
        assert back.t_notation == ident.t_notation
        assert back.degree == ident.degree
        assert back.certainty == ident.certainty
        assert list(back.evidence) == list(ident.evidence)
        assert verify_identification(parse_int_poly("x^3 - 2"), back)


@pytest.fixture()
def report(warm_cache_dir):
    return reproduce("Atanh2Pade", cache=ResultCache(warm_cache_dir))


class TestEmit:
    def test_text_layout(self, report):
        text = emit(report, "text").decode()
        lines = text.splitlines()
        assert lines[0].startswith("table Atanh2Pade:")
        assert lines[1].startswith("source: anchor")
        assert "result: PASS" in lines[-1]
        assert "cells: 16  proven: 15  consistent: 1  mismatches: 0" in text

    def test_csv_layout(self, report):
        rows = emit(report, "csv").decode().splitlines()
        assert rows[0] == "n,G(P_n),certainty,G(Q_n),certainty"
        assert rows[1] == "7,C2,proven,C2,proven"
        assert len(rows) == 1 + 8

    def test_json_is_the_report(self, report):
        assert json.loads(emit(report, "json").decode()) == report

    def test_unknown_format(self, report):
        with pytest.raises(ValueError, match="csv"):
            emit(report, "yaml")


class TestCliReproduce:
    def test_pass_exit_zero(self, warm_cache_dir, capsys):
        rc = main(
            ["reproduce", "atanh2-pade", "--cache-dir", str(warm_cache_dir)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "result: PASS" in out

    def test_csv_output(self, warm_cache_dir, capsys):
        rc = main(
            [
                "reproduce",
                "Atanh2Pade",
                "--csv",
                "--cache-dir",
                str(warm_cache_dir),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[0] == "n,G(P_n),certainty,G(Q_n),certainty"

    def test_json_output_parses(self, warm_cache_dir, capsys):
        rc = main(
            [
                "reproduce",
                "Atanh2Pade",
                "--json",
                "--cache-dir",
                str(warm_cache_dir),
            ]
        )
        report = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert report["summary"]["status"] == "pass"

    def test_mismatch_exit_one(self, warm_cache_dir, monkeypatch, capsys):
        spec = TABLES["Atanh2Pade"]
        row = spec.rows[0]
        bad_cell = dataclasses.replace(row.cells[0], label="S6", engine="S6")
        bad_row = dataclasses.replace(row, cells=(bad_cell,) + row.cells[1:])
        bad_spec = dataclasses.replace(spec, rows=(bad_row,) + spec.rows[1:])
        monkeypatch.setitem(padegalois.tables.TABLES, "Atanh2Pade", bad_spec)
        rc = main(
            ["reproduce", "Atanh2Pade", "--cache-dir", str(warm_cache_dir)]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "result: FAIL" in out
        assert "MISMATCH" in out

    def test_unknown_table_exit_two(self, capsys):
        rc = main(["reproduce", "NoSuchTable"])
        assert rc == 2
        assert "unknown table id" in capsys.readouterr().err

    def test_json_csv_conflict(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "Atanh2Pade", "--json", "--csv"])
        assert exc.value.code == 2

    def test_no_cache_flag(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PADEGALOIS_CACHE_DIR", str(tmp_path))
        rc = main(["reproduce", "SinSinh", "--no-cache"])
        capsys.readouterr()
        assert rc == 0
        assert list(tmp_path.iterdir()) == []


class TestCliCommands:
    def test_series_json(self, capsys):
        rc = main(["series", "--id", "exp", "--order", "6", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["common_denominator"] == "720"
        assert len(payload["coefficients"]) == 7
        assert payload["integer_coefficients"][-1] == "1"

    def test_pade_json(self, capsys):
        rc = main(["pade", "--series", "exp", "--order", "5", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["numerator"] == ["12", "6", "1"]
        assert payload["denominator"] == ["12", "-6", "1"]
        assert payload["overall_sign"] == 1

    def test_pade_factor_text(self, capsys):
        rc = main(["pade", "--series", "exp", "--order", "5", "--factor"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "P factors:" in out and "Q factors:" in out

    def test_pade_missing_args(self, capsys):
        rc = main(["pade"])
        assert rc == 2
        assert "requires --series" in capsys.readouterr().err

    def test_pade_defective_order(self, capsys):
        rc = main(["pade", "--series", "atanh2", "--order", "6"])
        assert rc == 2
        assert "defective" in capsys.readouterr().err

    def test_scan_divisibility_json(self, capsys):
        rc = main(
            [
                "pade",
                "scan-divisibility",
                "--series",
                "invsqrt-minus",
                "--max",
                "8",
                "--json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert all(p["numerator_divides"] for p in payload["pairs"])
        broken = [
            (p["divisor"], p["multiple"])
            for p in payload["pairs"]
            if not p["denominator_divides"]
        ]
        assert (2, 4) in broken and (3, 6) in broken
        assert payload["violations"] == len(broken)

    def test_scan_divisibility_json_before_leaf(self, capsys):
        argv = ["scan-divisibility", "--series", "exp", "--max", "3"]
        rc = main(["pade", "--json"] + argv)
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["schema"] == "padegalois-pade-scan/1"
        assert payload["max_order"] == 3

    def test_scan_divisibility_series_before_leaf(self, capsys):
        rc = main(["pade", "--series", "exp", "scan-divisibility", "--max", "2"])
        assert rc == 0
        assert capsys.readouterr().out.startswith(
            "divisibility scan of exp up to order 2\n"
        )

    @pytest.mark.parametrize("extra", [["--order", "3"], ["--factor"]])
    def test_scan_divisibility_refuses_pade_options(self, extra, capsys):
        argv = ["scan-divisibility", "--series", "exp", "--max", "2"]
        rc = main(["pade"] + extra + argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "takes neither --order nor --factor" in captured.err

    def test_factor_json_machine_form(self, capsys):
        rc = main(["factor", "--poly", '["-4","0","0","0","1"]', "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["unit"] == 1
        product = parse_int_poly("1")
        for item in payload["factors"]:
            factor = int_poly_from_strings(item["coefficients"])
            for _ in range(item["multiplicity"]):
                product = product * factor
        assert product == parse_int_poly("x^4 - 4")

    def test_factor_from_file(self, tmp_path, capsys):
        source = tmp_path / "poly.txt"
        source.write_text("x^2 - 1\n", encoding="utf-8")
        rc = main(["factor", "--poly", str(source)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "(x - 1) * (x + 1)" in out

    def test_newton_json_slope_strings(self, capsys):
        rc = main(
            ["newton", "--series", "exp", "--n", "10", "--prime", "7", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["segments"] == [
            {"slope": "-1/7", "length": 7},
            {"slope": "0/1", "length": 3},
        ]
        assert payload["points"][0] == [0, 0]
        assert sum(seg["length"] for seg in payload["segments"]) == 10

    def test_newton_rejects_composite(self, capsys):
        rc = main(["newton", "--series", "exp", "--n", "5", "--prime", "10"])
        assert rc == 2
        assert "not prime" in capsys.readouterr().err

    def test_galois_json_round_trips(self, capsys):
        rc = main(["galois", "--poly", "x^5 - x - 1", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        verdict = GaloisIdentification.from_dict(payload["verdict"])
        assert verdict.group_name == "S5"
        assert verdict.certainty.is_proven
        assert verify_identification(parse_int_poly("x^5 - x - 1"), verdict)

    def test_galois_all_factors(self, capsys):
        rc = main(["galois", "--poly", "x^6 - 1", "--all-factors", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        names = sorted(
            item["verdict"]["group_name"] for item in payload["factors"]
        )
        assert names == ["C1", "C1", "C2", "C2"]

    def test_schur_json_prime(self, capsys):
        rc = main(["schur", "--n", "7", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        kinds = [c["kind"] for c in payload["certificates"]]
        assert "eisenstein" in kinds
        assert all(c["validates"] for c in payload["certificates"])
        assert payload["disc"]["agreement"] is False  # odd N: signs differ
        assert payload["derivative_identity"] is True
        assert payload["expected_group"] == "S7"

    def test_schur_all_checks(self, capsys):
        rc = main(["schur", "--n", "8", "--all-checks", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["disc"]["agreement"] is True
        assert payload["expected_group"] == "A8"
        assert payload["verdict"]["group_name"] == "A8"
        assert payload["matches_expectation"] is True

    def test_csv_rejected_outside_reproduce(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["factor", "--poly", "x^2 - 1", "--csv"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --csv" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("argv", "extra"),
        [
            (["series", "--id", "exp", "--order", "3"], ["--prime-bound", "7"]),
            (["pade", "--series", "exp", "--order", "5"], ["--no-cache"]),
            (["pade", "scan-divisibility", "--series", "exp"], ["--csv"]),
            (["factor", "--poly", "x^2 - 1"], ["--prime-bound", "7"]),
            (
                ["newton", "--series", "exp", "--n", "4", "--prime", "3"],
                ["--csv"],
            ),
            (["galois", "--poly", "x^2 - 2"], ["--cache-dir", "somewhere"]),
            (["galois", "--poly", "x^2 - 2"], ["--csv"]),
            (["schur", "--n", "5"], ["--verify-cache"]),
            (["schur", "--n", "5"], ["--no-cache"]),
        ],
    )
    def test_option_outside_its_scope_is_refused(self, argv, extra, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + extra)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            "unrecognized arguments: " + " ".join(extra) + "\n"
        )

    def test_unknown_series_tag(self, capsys):
        rc = main(["series", "--id", "bogus", "--order", "3"])
        assert rc == 2
        assert "unknown series tag" in capsys.readouterr().err

    def test_schur_all_checks_aliased_group(self, capsys):
        rc = main(["schur", "--n", "2", "--all-checks", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["expected_group"] == "S2"
        assert payload["verdict"]["group_name"] == "C2"
        assert payload["matches_expectation"] is True

    @pytest.mark.parametrize(
        "command, array",
        [
            ("factor", "[0.5, 1]"),
            ("factor", "[1.9, 0, 1]"),
            ("galois", "[true, 0, 1]"),
            ("factor", "[[1], 2]"),
            ("factor", "[null]"),
        ],
    )
    def test_loose_coefficient_array_exit_two(self, command, array, capsys):
        rc = main([command, "--poly", array])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("bound", ["1", "0", "-5"])
    def test_prime_bound_below_two_exit_two(self, bound, capsys):
        rc = main(["galois", "--poly", "x^7-x-1", "--prime-bound", bound])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: prime bound")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", ["factor", "galois"])
    def test_factor_cutoff_exit_two(self, command, monkeypatch, capsys):
        # x^4 - 10x^2 + 1 splits mod every prime, so no prime meets a
        # cutoff of one modular factor
        monkeypatch.setattr(padegalois.factor, "RECOMBINATION_CUTOFF", 1)
        rc = main([command, "--poly", "x^4 - 10*x^2 + 1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: every probed prime")
        assert captured.err.count("\n") == 1
