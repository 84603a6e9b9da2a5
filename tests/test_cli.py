"""The frappe command-line interface, end to end."""

import os
import shutil

import pytest

from repro.cli import main
from repro.workloads import generate_codebase


@pytest.fixture(scope="module")
def source_tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("src")
    codebase = generate_codebase(subsystems=2, files_per_subsystem=2,
                                 functions_per_file=2, seed=11)
    for path, content in codebase.files.items():
        target = root / path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(content)
    script = root / "build.sh"
    script.write_text(codebase.build_script)
    return root, script


@pytest.fixture(scope="module")
def store(source_tree, tmp_path_factory):
    root, script = source_tree
    out = tmp_path_factory.mktemp("stores") / "kernel"
    code = main(["index", str(root), "--script", str(script),
                 "--out", str(out), "-I", "include"])
    assert code == 0
    return str(out)


class TestIndex:
    def test_store_created(self, store):
        assert os.path.exists(os.path.join(store, "metadata.json"))

    def test_index_output(self, source_tree, tmp_path, capsys):
        root, script = source_tree
        main(["index", str(root), "--script", str(script),
              "--out", str(tmp_path / "s"), "-I", "include"])
        out = capsys.readouterr().out
        assert "indexed" in out and "nodes" in out


class TestSearch:
    def test_search_by_name(self, store, capsys):
        assert main(["search", store, "start_kernel"]) == 0
        out = capsys.readouterr().out
        assert "function" in out

    def test_search_wildcard_with_type(self, store, capsys):
        assert main(["search", store, "scsi_*", "--type",
                     "function"]) == 0
        out = capsys.readouterr().out
        assert "(0 results)" not in out


class TestQuery:
    def test_cypher_query(self, store, capsys):
        assert main(["query", store,
                     "MATCH (n:macro) RETURN n.short_name "
                     "ORDER BY n.short_name LIMIT 3"]) == 0
        out = capsys.readouterr().out
        assert "rows" in out

    def test_bad_query_is_reported(self, store, capsys):
        assert main(["query", store, "MATCH MATCH"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_max_rows_truncates(self, store, capsys):
        assert main(["query", store,
                     "MATCH (n:function) RETURN n.short_name",
                     "--max-rows", "2"]) == 0
        out = capsys.readouterr().out
        assert "(2 rows (truncated)," in out

    def test_json_emits_canonical_payload(self, store, capsys):
        import json
        from repro.cypher.result import (RESULT_SCHEMA_VERSION,
                                         Result)
        assert main(["query", store,
                     "MATCH (n:function) RETURN count(*) AS n",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == RESULT_SCHEMA_VERSION
        result = Result.from_dict(payload)
        assert result.columns == ["n"]
        assert result.value() > 0


class TestExplain:
    def test_explain_plan(self, store, capsys):
        assert main(["explain", store,
                     "MATCH (n:function{short_name: 'start_kernel'}) "
                     "-[:calls*]-> m RETURN m"]) == 0
        out = capsys.readouterr().out
        assert "anchor" in out
        assert "index-seek" in out
        assert "path enumeration" in out


class TestProfile:
    def test_profile_operator_tree(self, store, capsys):
        assert main(["profile", store,
                     "MATCH (n:function{short_name: 'start_kernel'}) "
                     "-[:calls*]-> m RETURN distinct m"]) == 0
        out = capsys.readouterr().out
        assert "Query" in out
        assert "VarLengthExpand" in out
        assert "dbhits=" in out
        assert "db hits" in out
        assert "cache hit ratio" in out
        assert "hottest operator:" in out

    @pytest.mark.parametrize("flags,rewritten", [([], True),
                                                 (["--no-rewrite"], False)])
    def test_no_rewrite_turns_off_count_distinct_closure(
            self, store, capsys, flags, rewritten):
        assert main(["profile", store,
                     "MATCH (n:function{short_name: 'start_kernel'}) "
                     "-[:calls*]-> m RETURN count(DISTINCT m)",
                     *flags]) == 0
        assert ("mode=reachability" in capsys.readouterr().out) == \
            rewritten


class TestRefs:
    def test_find_references(self, store, capsys):
        assert main(["refs", store, "scsi_init_0", "--type",
                     "function"]) == 0
        out = capsys.readouterr().out
        assert "references" in out
        assert "calls" in out


class TestSlice:
    def test_backward_slice(self, store, capsys):
        assert main(["slice", store, "start_kernel"]) == 0
        out = capsys.readouterr().out
        assert "entities" in out

    def test_forward_slice(self, store, capsys):
        assert main(["slice", store, "start_kernel", "--forward"]) == 0
        assert "(0 entities)" in capsys.readouterr().out


class TestCycles:
    def test_call_cycles(self, store, capsys):
        assert main(["cycles", store]) == 0
        out = capsys.readouterr().out
        assert "cycles over calls" in out

    def test_include_cycles(self, store, capsys):
        assert main(["cycles", store, "--edges", "includes"]) == 0
        assert "cycles over includes" in capsys.readouterr().out


class TestMap:
    def test_ascii_map(self, store, capsys):
        assert main(["map", store]) == 0
        out = capsys.readouterr().out
        assert "|" in out

    def test_svg_map_with_highlight(self, store, tmp_path, capsys):
        svg_path = tmp_path / "map.svg"
        assert main(["map", store, "--svg", str(svg_path),
                     "--highlight", "start_kernel"]) == 0
        content = svg_path.read_text()
        assert content.startswith("<svg")
        assert "#e4572e" in content  # highlight color present


class TestStats:
    def test_stats_output(self, store, capsys):
        assert main(["stats", store]) == 0
        out = capsys.readouterr().out
        assert "nodes:" in out
        assert "hubs" in out
        assert "properties" in out


class TestGenerate:
    def test_generate_store(self, tmp_path, capsys):
        out_dir = tmp_path / "synth"
        assert main(["generate", "--scale", "0.002", "--out",
                     str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "generated" in out
        assert main(["stats", str(out_dir)]) == 0


def test_missing_store_reports_error(tmp_path, capsys):
    assert main(["search", str(tmp_path / "nope"), "x"]) == 1
    assert "error:" in capsys.readouterr().err


class TestFsck:
    def test_clean_store_exits_zero(self, store, capsys):
        assert main(["fsck", store]) == 0
        assert "clean" in capsys.readouterr().out

    def test_corrupt_store_exits_one_and_names_file(self, source_tree,
                                                    tmp_path, capsys):
        root, script = source_tree
        out = tmp_path / "damaged"
        main(["index", str(root), "--script", str(script),
              "--out", str(out), "-I", "include"])
        capsys.readouterr()
        from repro.graphdb.storage.faults import flip_byte
        flip_byte(str(out / "nodestore.db"), 40)
        assert main(["fsck", str(out)]) == 1
        printed = capsys.readouterr().out
        assert "corrupt" in printed and "nodestore.db" in printed

    def test_repairable_store_exits_two(self, source_tree, tmp_path,
                                        capsys):
        root, script = source_tree
        out = tmp_path / "dented"
        main(["index", str(root), "--script", str(script),
              "--out", str(out), "-I", "include"])
        capsys.readouterr()
        from repro.graphdb.storage.faults import flip_byte
        flip_byte(str(out / "index.postings.db"), 3)
        assert main(["fsck", str(out)]) == 2
        assert "repairable" in capsys.readouterr().out


class TestKeepGoing:
    def test_keep_going_indexes_through_broken_unit(self, tmp_path,
                                                    capsys):
        root = tmp_path / "src"
        root.mkdir()
        (root / "good.c").write_text("int good(void) { return 1; }\n")
        (root / "bad.c").write_text("int bad( { syntax error\n")
        script = root / "build.sh"
        script.write_text("gcc good.c -c -o good.o\n"
                          "gcc bad.c -c -o bad.o\n")
        out = tmp_path / "partial"
        assert main(["index", str(root), "--script", str(script),
                     "--out", str(out), "--keep-going"]) == 0
        captured = capsys.readouterr()
        assert "1 ok" in captured.out and "1 failed" in captured.out
        assert "bad.c" in captured.err
        assert main(["query", str(out),
                     "MATCH (n:function) RETURN n.short_name"]) == 0
        assert "good" in capsys.readouterr().out

    def test_fail_fast_default_stops_on_broken_unit(self, tmp_path,
                                                    capsys):
        root = tmp_path / "src"
        root.mkdir()
        (root / "bad.c").write_text("int bad( { syntax error\n")
        script = root / "build.sh"
        script.write_text("gcc bad.c -c -o bad.o\n")
        assert main(["index", str(root), "--script", str(script),
                     "--out", str(tmp_path / "s")]) == 1
        assert "error:" in capsys.readouterr().err


class TestServe:
    def test_serve_runs_stdin_queries(self, store, capsys,
                                      monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(
            "# a comment line\n"
            "MATCH (n:function) RETURN count(*)\n"
            "\n"
            "MATCH (n:file) RETURN count(*)\n"))
        assert main(["serve", store, "--workers", "2"]) == 0
        captured = capsys.readouterr()
        assert "[0]" in captured.out and "[1]" in captured.out
        assert "2 queries, 0 failed" in captured.err

    def test_serve_reports_bad_query(self, store, capsys,
                                     monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin",
                            io.StringIO("MATCH MATCH\n"))
        assert main(["serve", store]) == 1
        assert "[0] error:" in capsys.readouterr().err

    def test_removed_parallelism_flag_is_rejected(self, store, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", store, "--parallelism", "2"])
        assert exit_info.value.code == 2
        assert "--parallelism" in capsys.readouterr().err

    def test_serve_stdin_json_mode(self, store, capsys, monkeypatch):
        import io
        import json
        from repro.cypher.result import Result
        monkeypatch.setattr("sys.stdin", io.StringIO(
            "MATCH (n:function) RETURN count(*) AS n\n"))
        assert main(["serve", store, "--json"]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        result = Result.from_dict(json.loads(line))
        assert result.columns == ["n"]

    @pytest.mark.parametrize("serving", [
        ["serve", "{store}", "--http", "0"],
        ["serve", "{store}", "--http", "0", "--replicas", "1"],
        ["serve", "--http", "0", "--shards", "{shards}"],
        ["shard-split", "{store}", "--shards", "2", "--out", "{out}"],
    ], ids=["in_process", "replicas", "shard_root", "shard_split"])
    def test_unservable_store_refused_before_serving(
            self, store, tmp_path, capsys, serving):
        """Every serving tier over a layout-1 store (or shard) exits
        1 with the compact message before binding a port — no
        traceback, no worker respawn loop."""
        from repro.graphdb.storage.faults import stamp_csr_layout
        shards = tmp_path / "shards"
        assert main(["shard-split", store, "--shards", "2",
                     "--out", str(shards)]) == 0
        aged = shutil.copytree(store, str(tmp_path / "aged"))
        stamp_csr_layout(aged, 1)
        stamp_csr_layout(str(shards / "shard-001"), 1)
        capsys.readouterr()
        argv = [part.format(store=aged, shards=shards,
                            out=tmp_path / "out") for part in serving]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "csr layout 1, run `frappe compact`" in captured.err
        assert "Traceback" not in captured.err + captured.out
        assert "serving http" not in captured.err

    def test_serve_http_flag_boots_and_answers(self, store):
        # drive the HTTP deployment through the same backend wiring
        # the CLI flag uses (the blocking run() loop itself is
        # exercised by the CI serve-smoke job)
        from repro.client import FrappeClient
        from repro.core.config import StoreConfig
        from repro.core.frappe import Frappe
        from repro.server.http import ExecutorBackend, HttpServer
        frappe = Frappe.open(store, config=StoreConfig())
        backend = ExecutorBackend(frappe, workers=2,
                                  queue_capacity=8)
        with HttpServer(backend) as server:
            with FrappeClient(port=server.port) as client:
                assert client.health()["status"] == "ok"
                assert client.query(
                    "MATCH (n:function) RETURN count(*)").value() > 0


class TestIndexJobs:
    def test_index_with_jobs_matches_serial(self, source_tree,
                                            tmp_path, capsys):
        root, script = source_tree
        assert main(["index", str(root), "--script", str(script),
                     "--out", str(tmp_path / "serial"),
                     "-I", "include"]) == 0
        serial_out = capsys.readouterr().out
        assert main(["index", str(root), "--script", str(script),
                     "--out", str(tmp_path / "fanned"),
                     "-I", "include", "--jobs", "3"]) == 0
        fanned_out = capsys.readouterr().out
        assert fanned_out.splitlines()[0] == serial_out.splitlines()[0]


class TestCompact:
    def test_compact_prints_size_breakdown(self, source_tree, tmp_path,
                                           capsys):
        root, script = source_tree
        out = tmp_path / "compacted"
        main(["index", str(root), "--script", str(script),
              "--out", str(out), "-I", "include"])
        capsys.readouterr()
        assert main(["compact", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "compacted" in printed and "KiB" in printed
        assert "csr" in printed and "dictionary" in printed

    def test_compact_repairs_fsck_repairable_store(self, source_tree,
                                                   tmp_path, capsys):
        root, script = source_tree
        out = tmp_path / "torn"
        main(["index", str(root), "--script", str(script),
              "--out", str(out), "-I", "include"])
        capsys.readouterr()
        from repro.graphdb.storage.faults import flip_byte
        flip_byte(str(out / "csr.db"), 10)
        assert main(["fsck", str(out)]) == 2  # repairable, not corrupt
        assert "csr" in capsys.readouterr().out
        assert main(["compact", str(out)]) == 0
        capsys.readouterr()
        assert main(["fsck", str(out)]) == 0
        capsys.readouterr()
        assert main(["query", str(out),
                     "MATCH (n:function) RETURN count(*)"]) == 0

    def test_layout_1_store_is_repairable_then_compacted(
            self, store, tmp_path, capsys):
        """A store compiled before the column layout: fsck exit 2, a
        query is refused with the compact message (no traceback), and
        after compact it answers as before."""
        from repro.graphdb.storage.faults import stamp_csr_layout
        store = shutil.copytree(store, str(tmp_path / "aged"))
        query = ["query", store, "MATCH (n:function) RETURN count(*)"]
        assert main(query) == 0
        answer = capsys.readouterr().out.splitlines()[:2]  # not timing
        stamp_csr_layout(store, 1)
        assert main(["fsck", store]) == 2
        printed = capsys.readouterr().out
        assert "repairable" in printed and "csr layout 1" in printed
        assert main(query) == 1
        refused = capsys.readouterr()
        assert refused.out == ""
        assert "csr layout 1, run `frappe compact`" in refused.err
        assert store in refused.err and "Traceback" not in refused.err
        assert main(["compact", store]) == 0
        capsys.readouterr()
        assert main(["fsck", store]) == 0
        capsys.readouterr()
        assert main(query) == 0
        assert capsys.readouterr().out.splitlines()[:2] == answer

    def test_layout_1_shard_root_is_repaired_per_shard(self, store,
                                                       tmp_path, capsys):
        from repro.graphdb.storage.faults import stamp_csr_layout
        shard_root = tmp_path / "shards"
        assert main(["shard-split", store, "--shards", "2",
                     "--out", str(shard_root), "--by-subtree"]) == 0
        for shard in ("shard-000", "shard-001"):
            stamp_csr_layout(str(shard_root / shard), 1)
        capsys.readouterr()
        assert main(["fsck", str(shard_root)]) == 2
        printed = capsys.readouterr().out
        assert "repairable" in printed
        assert printed.count("csr layout 1") == 2  # one per shard
        assert main(["compact", str(shard_root)]) == 0
        capsys.readouterr()
        assert main(["fsck", str(shard_root)]) == 0

    def test_compact_shard_root_reports_every_shard(self, store,
                                                    tmp_path, capsys):
        shard_root = tmp_path / "shards"
        assert main(["shard-split", store, "--shards", "2",
                     "--out", str(shard_root), "--by-subtree"]) == 0
        capsys.readouterr()
        assert main(["compact", str(shard_root)]) == 0
        printed = capsys.readouterr().out
        assert printed.count("csr") >= 2  # one line per shard


class TestFsckBreakdown:
    def test_reports_compiled_files_with_sizes(self, store, capsys):
        assert main(["fsck", store]) == 0
        printed = capsys.readouterr().out
        assert "file" in printed and "category" in printed
        assert "records" in printed
        assert "csr.db" in printed and "dictionary.db" in printed
        assert "total" in printed
