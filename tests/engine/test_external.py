"""Tests for external JSON tables (In-Situ processing, section 3.4)."""

import pytest

from repro.core.dataguide import create_view_on_path
from repro.engine import Database, Query, expr
from repro.engine.external import ExternalJsonTable
from repro.errors import EngineError
from repro.jsontext import dumps, loads

DOCS = [
    {"po": {"id": 1, "items": [{"sku": "A", "qty": 2}]}},
    {"po": {"id": 2, "note": "rush"}},
    {"po": {"id": 3, "items": [{"sku": "B", "qty": 1},
                               {"sku": "C", "qty": 5}]}},
]


@pytest.fixture()
def jsonl(tmp_path):
    path = tmp_path / "docs.jsonl"
    lines = [dumps(d) for d in DOCS]
    lines.insert(1, "")  # blank lines are skipped
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestScan:
    def test_rows_with_line_numbers(self, jsonl):
        table = ExternalJsonTable(jsonl)
        rows = list(table.scan())
        assert len(rows) == 3
        assert rows[0]["LINE"] == 1
        assert rows[1]["LINE"] == 3  # the blank line was skipped
        assert "JDOC" in rows[0]

    def test_missing_file(self):
        with pytest.raises(EngineError):
            ExternalJsonTable("/nope/missing.jsonl")

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\n{broken\n', encoding="utf-8")
        table = ExternalJsonTable(str(path))
        with pytest.raises(EngineError):
            list(table.scan())

    def test_skip_errors(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\n{broken\n{"ok": 2}\n', encoding="utf-8")
        table = ExternalJsonTable(str(path), skip_errors=True)
        assert len(list(table.scan())) == 2

    def test_in_situ_rescan_sees_appends(self, jsonl):
        table = ExternalJsonTable(jsonl)
        assert len(list(table.scan())) == 3
        with open(jsonl, "a", encoding="utf-8") as handle:
            handle.write(dumps({"po": {"id": 4}}) + "\n")
        assert len(list(table.scan())) == 4  # no reload step


class TestErrorPaths:
    """Failure-mode contract (ISSUE satellite): TOCTOU re-check,
    skip_errors accounting, blank lines, BOM tolerance."""

    def test_file_deleted_between_scans(self, jsonl):
        import os
        table = ExternalJsonTable(jsonl)
        assert len(list(table.scan())) == 3
        os.remove(jsonl)
        with pytest.raises(EngineError) as exc_info:
            list(table.scan())
        assert jsonl in str(exc_info.value)  # error names the path

    def test_missing_file_error_names_path(self):
        with pytest.raises(EngineError) as exc_info:
            ExternalJsonTable("/nope/missing.jsonl")
        assert "/nope/missing.jsonl" in str(exc_info.value)

    def test_malformed_line_error_names_path_and_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\n{broken\n', encoding="utf-8")
        table = ExternalJsonTable(str(path))
        with pytest.raises(EngineError) as exc_info:
            list(table.scan())
        assert str(path) in str(exc_info.value)
        assert ":2:" in str(exc_info.value)

    def test_skipped_count_tracks_each_scan(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\n{broken\nnot json either\n{"ok": 2}\n',
                        encoding="utf-8")
        table = ExternalJsonTable(str(path), skip_errors=True)
        assert table.skipped_count == 0
        assert len(list(table.scan())) == 2
        assert table.skipped_count == 2
        # the counter resets per scan, it does not accumulate
        path.write_text('{"ok": 1}\n{broken\n', encoding="utf-8")
        assert len(list(table.scan())) == 1
        assert table.skipped_count == 1

    def test_blank_lines_are_not_counted_as_skipped(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        path.write_text('{"a": 1}\n\n   \n{"b": 2}\n', encoding="utf-8")
        table = ExternalJsonTable(str(path), skip_errors=True)
        rows = list(table.scan())
        assert [r["LINE"] for r in rows] == [1, 4]
        assert table.skipped_count == 0

    def test_utf8_bom_first_line_parses(self, tmp_path):
        path = tmp_path / "bom.jsonl"
        path.write_bytes(b'\xef\xbb\xbf{"first": 1}\n{"second": 2}\n')
        table = ExternalJsonTable(str(path))
        rows = list(table.scan())
        assert len(rows) == 2
        assert rows[0]["LINE"] == 1
        from repro.jsontext import loads
        assert loads(rows[0]["JDOC"]) == {"first": 1}


    @pytest.mark.parametrize("line", [
        '{"a":1} x', "[1]]", "1 2", r'{"a":"\u-001"}', "[" * 2000 + "]" * 2000,
    ], ids=["trailing-word", "extra-bracket", "two-values", "u-minus",
            "too-deep"])
    def test_malformed_line_is_counted_or_raises(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\n' + line + '\n{"ok": 2}\n',
                        encoding="utf-8")
        with pytest.raises(EngineError, match=":2:"):
            list(ExternalJsonTable(str(path)).scan())
        table = ExternalJsonTable(str(path), skip_errors=True)
        assert list(table.documents()) == [{"ok": 1}, {"ok": 2}]
        assert table.skipped_count == 1

    def test_documents_parse_each_line_once(self, jsonl, monkeypatch):
        from repro.engine import external
        calls = []

        def counting_loads(text):
            calls.append(text)
            return loads(text)

        monkeypatch.setattr(external, "loads", counting_loads)
        assert list(ExternalJsonTable(jsonl).documents()) == DOCS
        assert len(calls) == len(DOCS)


class TestInSituQuerying:
    def test_query_over_external_table(self, jsonl):
        rows = (Query(ExternalJsonTable(jsonl))
                .where(expr.JsonExistsExpr("JDOC", "$.po.note"))
                .select("LINE")
                .rows())
        assert rows == [{"LINE": 3}]

    def test_dataguide_without_loading(self, jsonl):
        guide = ExternalJsonTable(jsonl).dataguide()
        assert "$.po.note" in guide.paths()
        assert guide.document_count == 3

    def test_dataguide_sampling(self, jsonl):
        guide = ExternalJsonTable(jsonl).dataguide(sample_percent=99, seed=1)
        assert guide.document_count <= 3

    def test_dmdv_view_over_external(self, jsonl):
        db = Database()
        table = ExternalJsonTable(jsonl)
        create_view_on_path(db, table, "JDOC", table.dataguide(),
                            view_name="EXT_RV",
                            include_columns=["LINE"])
        rows = db.query("EXT_RV").rows()
        assert len(rows) == 4  # 1 + 1(no items) + 2
        skus = sorted(r["JDOC$sku"] for r in rows if r["JDOC$sku"])
        assert skus == ["A", "B", "C"]


class TestCli:
    def test_flat_output(self, jsonl, capsys):
        from repro.tools.dataguide import main
        assert main([jsonl]) == 0
        captured = capsys.readouterr()
        assert "$.po.note" in captured.out
        assert "3 documents" in captured.err

    def test_hierarchical_output(self, jsonl, capsys):
        from repro.tools.dataguide import main
        assert main([jsonl, "--hierarchical"]) == 0
        captured = capsys.readouterr()
        from repro.jsontext import loads
        assert loads(captured.out)["type"] == "object"

    def test_sampled(self, jsonl, capsys):
        from repro.tools.dataguide import main
        assert main([jsonl, "--sample", "99", "--seed", "5"]) == 0
