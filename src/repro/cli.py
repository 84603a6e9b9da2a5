"""The ``frappe`` command-line interface.

Subcommands::

    frappe index   <source-dir> --script build.sh --out store/
    frappe fsck    <store>
    frappe compact <store>     (rebuild compiled CSR + dictionary)
    frappe search  <store> NAME [--type T] [--module M]
    frappe query   <store> 'MATCH (n:function) RETURN n.short_name'
    frappe serve   <store> --workers 4    (queries from stdin)
    frappe explain <store> '<cypher>'
    frappe profile <store> '<cypher>'
    frappe refs    <store> NAME [--type T]
    frappe slice   <store> FUNCTION [--forward]
    frappe cycles  <store> [--edges calls,includes]
    frappe map     <store> [--svg out.svg] [--highlight NAME]
    frappe stats   <store>
    frappe generate --scale 0.02 --out store/   (synthetic kernel)
    frappe shard-split <store> --by-subtree --shards 4 --out shards/
    frappe serve   --http PORT --shards shards/   (scatter/gather)

A "store" argument is a directory produced by ``frappe index``/
``generate`` (or by :meth:`repro.core.frappe.Frappe.save`);
``fsck`` and ``serve --shards`` also accept a shard root produced by
``shard-split``.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from repro.codemap import build_hierarchy, layout_map, render_ascii, render_svg
from repro.codemap.render import overlay_nodes
from repro.core.config import StoreConfig
from repro.core.frappe import Frappe
from repro.errors import FrappeError
from repro.graphdb import stats
from repro.graphdb import storage
from repro.graphdb.storage import GraphStore
from repro.lang.source import VirtualFileSystem
from repro.build.buildsys import FAIL_FAST, KEEP_GOING, Build
from repro.core.extractor import extract_build


def build_arg_parser() -> argparse.ArgumentParser:
    """The frappe CLI argument parser (see module docstring)."""
    parser = argparse.ArgumentParser(
        prog="frappe",
        description="Query and visualize C dependency graphs "
                    "(GRADES'15 Frappé reproduction)")
    commands = parser.add_subparsers(dest="command", required=True)

    index = commands.add_parser(
        "index", help="compile a source tree and build its store")
    index.add_argument("source_dir")
    index.add_argument("--script", required=True,
                       help="build script of gcc command lines")
    index.add_argument("--out", required=True, help="store directory")
    index.add_argument("-I", "--include", action="append", default=[],
                       help="additional include path")
    index.add_argument("--ignore-missing-includes", action="store_true")
    index.add_argument("--keep-going", action="store_true",
                       help="record failed units as diagnostics and "
                       "index what survives (default: stop at the "
                       "first front-end error)")
    index.add_argument("--max-errors", type=int, default=None,
                       help="with --keep-going, abort once this many "
                       "errors accumulate")
    index.add_argument("-j", "--jobs", type=int, default=1,
                       help="compile units on this many worker "
                       "processes (default 1 = serial)")

    fsck = commands.add_parser(
        "fsck", help="verify a store's checksums and record structure")
    fsck.add_argument("store")

    compact = commands.add_parser(
        "compact", help="rewrite a store (or every shard of a shard "
        "root) in the current compiled format: persistent CSR "
        "adjacency segments + string dictionary page; also the repair "
        "for damaged CSR files")
    compact.add_argument("store")

    search = commands.add_parser("search", help="code search (Fig. 3)")
    search.add_argument("store")
    search.add_argument("name", help="symbol name (wildcards allowed)")
    search.add_argument("--type", dest="node_type")
    search.add_argument("--module")

    query = commands.add_parser("query", help="run a Cypher query")
    query.add_argument("store")
    query.add_argument("cypher")
    query.add_argument("--timeout", type=float, default=None)
    query.add_argument("--max-rows", type=int, default=None,
                       help="truncate the result after this many rows")
    query.add_argument("--no-rewrite", action="store_true",
                       help="disable the var-length reachability "
                       "rewrite (reproduces the Sec. 6.1 blow-up)")
    query.add_argument("--json", action="store_true",
                       help="print the canonical ResultPayload JSON "
                       "instead of a text table")
    _add_read_path_flags(query)

    serve = commands.add_parser(
        "serve", help="serve queries: from stdin on a worker pool "
        "(default), or over HTTP with --http PORT")
    serve.add_argument("store", nargs="?", default=None,
                       help="store directory (omit with --shards)")
    serve.add_argument("--shards", default=None, metavar="DIR",
                       help="with --http: scatter/gather over a "
                       "shard root from 'frappe shard-split' "
                       "(per-shard replica processes + a gateway "
                       "over the composite view)")
    serve.add_argument("--workers", type=int, default=4,
                       help="worker threads (default 4)")
    serve.add_argument("--queue", type=int, default=64,
                       help="admission queue capacity (default 64)")
    serve.add_argument("--timeout", type=float, default=None,
                       help="per-query budget, counted from submit")
    serve.add_argument("--http", type=int, default=None,
                       metavar="PORT",
                       help="serve the HTTP/JSON wire protocol on "
                       "this port instead of reading stdin "
                       "(POST /v1/query, GET /v1/health, "
                       "GET /v1/metrics)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address for --http "
                       "(default 127.0.0.1)")
    serve.add_argument("--replicas", type=int, default=0,
                       help="with --http: serve from this many "
                       "mmap'd worker processes (0 = in-process "
                       "thread pool)")
    serve.add_argument("--max-per-client", type=int, default=None,
                       help="fair-share bound on one client's "
                       "in-flight queries")
    serve.add_argument("--json", action="store_true",
                       help="stdin mode: print one canonical "
                       "ResultPayload JSON object per query")
    _add_read_path_flags(serve)

    explain = commands.add_parser(
        "explain", help="show a query's execution plan")
    explain.add_argument("store")
    explain.add_argument("cypher")

    profile = commands.add_parser(
        "profile", help="run a query and show its measured operator "
        "tree (rows, db hits, time per operator)")
    profile.add_argument("store")
    profile.add_argument("cypher")
    profile.add_argument("--timeout", type=float, default=None)
    profile.add_argument("--no-rewrite", action="store_true",
                         help="disable the var-length reachability "
                         "rewrite while profiling")
    _add_read_path_flags(profile)

    refs = commands.add_parser(
        "refs", help="find references to a symbol (Sec. 4.2)")
    refs.add_argument("store")
    refs.add_argument("name")
    refs.add_argument("--type", dest="node_type")

    slice_cmd = commands.add_parser(
        "slice", help="call-graph slice of a function (Fig. 6)")
    slice_cmd.add_argument("store")
    slice_cmd.add_argument("function")
    slice_cmd.add_argument("--forward", action="store_true",
                           help="forward slice (default backward)")

    cycles = commands.add_parser(
        "cycles", help="find dependency cycles (calls or includes)")
    cycles.add_argument("store")
    cycles.add_argument("--edges", default="calls",
                        help="comma-separated edge types "
                        "(default: calls)")

    map_cmd = commands.add_parser("map", help="render the code map")
    map_cmd.add_argument("store")
    map_cmd.add_argument("--svg", help="write an SVG to this path")
    map_cmd.add_argument("--highlight", action="append", default=[],
                         help="short_name to highlight (repeatable)")
    map_cmd.add_argument("--width", type=int, default=100)
    map_cmd.add_argument("--height", type=int, default=30)

    stats_cmd = commands.add_parser(
        "stats", help="graph metrics (Tables 3-4, Fig. 7)")
    stats_cmd.add_argument("store")
    stats_cmd.add_argument("--top", type=int, default=10,
                           help="how many hub nodes to list")

    generate = commands.add_parser(
        "generate", help="synthesize a kernel-shaped store")
    generate.add_argument("--scale", type=float, default=0.02,
                          help="fraction of UEK size (default 0.02)")
    generate.add_argument("--seed", type=int, default=None)
    generate.add_argument("--out", required=True)

    shard_split = commands.add_parser(
        "shard-split", help="partition a store into per-subtree "
        "shard stores under a shard root")
    shard_split.add_argument("store")
    shard_split.add_argument("--shards", type=int, required=True,
                             help="number of shards")
    shard_split.add_argument("--out", required=True,
                             help="shard root directory")
    shard_split.add_argument("--by-subtree", action="store_true",
                             default=True,
                             help="shard by top-level directory "
                             "subtree (the only — and default — "
                             "strategy)")
    return parser


def _add_read_path_flags(subparser: argparse.ArgumentParser) -> None:
    """Flags shared by the store-querying subcommands."""
    subparser.add_argument(
        "--execution-mode", choices=("auto", "batch", "rows"),
        default="auto",
        help="Cypher engine: 'batch' forces vectorized morsel "
        "execution, 'rows' the generator pipeline, 'auto' (default) "
        "picks batch when every clause has a batch kernel")
    subparser.add_argument(
        "--morsel-size", type=int, default=None,
        help="rows per batch under batch execution (default 1024)")
    subparser.add_argument(
        "--mmap", action="store_true",
        help="memory-map the store files (zero-copy reads) instead "
        "of the buffered LRU page cache")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except FrappeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "index":
        return _cmd_index(args)
    if args.command == "fsck":
        return _cmd_fsck(args)
    if args.command == "compact":
        return _cmd_compact(args)
    if args.command == "search":
        return _cmd_search(args)
    if args.command == "query":
        return _cmd_query(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "explain":
        return _cmd_explain(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "refs":
        return _cmd_refs(args)
    if args.command == "cycles":
        return _cmd_cycles(args)
    if args.command == "slice":
        return _cmd_slice(args)
    if args.command == "map":
        return _cmd_map(args)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "shard-split":
        return _cmd_shard_split(args)
    raise AssertionError(f"unhandled command {args.command}")


def _open(store: str, args: argparse.Namespace | None = None) -> Frappe:
    if args is None:
        return Frappe.open(store)
    return Frappe.open(store, config=_store_config(args))


def _store_config(args: argparse.Namespace) -> StoreConfig:
    return StoreConfig(
        mmap=getattr(args, "mmap", False),
        execution_mode=getattr(args, "execution_mode", "auto"),
        morsel_size=getattr(args, "morsel_size", None))


def _cmd_index(args: argparse.Namespace) -> int:
    filesystem = VirtualFileSystem()
    count = filesystem.add_tree(args.source_dir)
    with open(args.script, encoding="utf-8") as handle:
        script = handle.read()
    build = Build(filesystem, include_paths=args.include,
                  ignore_missing_includes=args.ignore_missing_includes,
                  policy=KEEP_GOING if args.keep_going else FAIL_FAST,
                  max_errors=args.max_errors, jobs=args.jobs)
    build.run_script(script)
    graph = extract_build(build)
    sizes = GraphStore.write(graph, args.out)
    print(f"indexed {count} files -> {graph.node_count()} nodes, "
          f"{graph.edge_count()} edges")
    report = build.report
    if report.outcomes or report.link_diagnostics:
        print(f"build: {report.summary()}")
    for diagnostic in report.diagnostics:
        print(f"  {diagnostic}", file=sys.stderr)
    print(f"store: {args.out} ({sizes['total'] / 1024:.1f} KiB)")
    return 0


def _cmd_fsck(args: argparse.Namespace) -> int:
    if storage.is_shard_root(args.store):
        verification = storage.verify_shard_root(args.store)
    else:
        verification = GraphStore.verify(args.store)
    print(verification.summary())
    for problem in verification.problems:
        print(f"  {problem}")
    _print_fsck_breakdown(verification.files)
    if verification.status == storage.CORRUPT:
        return 1
    if verification.status == storage.REPAIRABLE:
        return 2
    return 0


def _print_fsck_breakdown(files: dict) -> None:
    """The Table-4-style per-file size/record-count report of fsck."""
    if not files:
        return
    print(f"{'file':<42} {'category':<14} {'bytes':>12} {'records':>12}")
    total = 0
    by_category: dict[str, int] = {}
    for name in sorted(files):
        report = files[name]
        size = report.get("bytes", 0)
        total += size
        category = report.get("category", "?")
        by_category[category] = by_category.get(category, 0) + size
        count = report.get("records")
        print(f"{name:<42} {category:<14} {size:>12}"
              f" {count if count is not None else '-':>12}")
    for category in sorted(by_category):
        print(f"{'':<42} {category:<14} {by_category[category]:>12}")
    print(f"{'total':<42} {'':<14} {total:>12}")


def _cmd_compact(args: argparse.Namespace) -> int:
    if storage.is_shard_root(args.store):
        breakdowns = storage.compact_shard_root(args.store)
        for shard_dir in sorted(breakdowns):
            sizes = breakdowns[shard_dir]
            print(f"{shard_dir}: {sizes['total'] / 1024:.1f} KiB "
                  f"(csr {sizes.get('csr', 0) / 1024:.1f} KiB, "
                  f"dictionary {sizes.get('dictionary', 0) / 1024:.1f} "
                  f"KiB)")
        return 0
    sizes = storage.compact_store(args.store)
    print(f"compacted {args.store}: {sizes['total'] / 1024:.1f} KiB "
          f"(csr {sizes.get('csr', 0) / 1024:.1f} KiB, "
          f"dictionary {sizes.get('dictionary', 0) / 1024:.1f} KiB)")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    with _open(args.store) as frappe:
        nodes = frappe.search(args.name, args.node_type, args.module)
        for node_id in nodes:
            info = frappe.describe(node_id)
            print(f"{info['type']:<14} {info.get('name', '')}")
        print(f"({len(nodes)} results)")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.cypher import QueryOptions
    with _open(args.store, args) as frappe:
        options = QueryOptions(
            timeout=args.timeout, max_rows=args.max_rows,
            use_reachability_rewrite=False if args.no_rewrite else None)
        result = frappe.query(args.cypher, options=options)
        if args.json:
            import json
            print(json.dumps(result.to_dict()))
            return 0
        print("\t".join(result.columns))
        for row in result.rows:
            print("\t".join(str(value) for value in row))
        truncated = " (truncated)" if result.stats.truncated else ""
        print(f"({len(result)} rows{truncated}, "
              f"{result.stats.elapsed_seconds * 1000:.1f} ms, "
              f"{result.stats.execution_mode} mode)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.shards is not None and args.http is None:
        raise FrappeError("--shards requires --http PORT")
    if args.store is None and args.shards is None:
        raise FrappeError("serve needs a store directory or --shards")
    if args.http is not None:
        return _cmd_serve_http(args)
    from repro.cypher import QueryOptions
    from repro.errors import AdmissionError, QueryTimeoutError
    options = QueryOptions(timeout=args.timeout)
    with _open(args.store, args) as frappe:
        executor = frappe.serve(args.workers,
                                queue_capacity=args.queue)
        print(f"serving with {executor.workers} workers "
              f"(queue {executor.queue_capacity}); one query per "
              "line, EOF to finish", file=sys.stderr)
        futures = []
        for line in sys.stdin:
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                futures.append(
                    (text, frappe.query_async(text, options=options)))
            except AdmissionError as error:
                print(f"[{len(futures)}] rejected: {error}",
                      file=sys.stderr)
        failures = 0
        for index, (text, future) in enumerate(futures):
            try:
                result = future.result()
            except QueryTimeoutError as error:
                failures += 1
                print(f"[{index}] timeout: {error}", file=sys.stderr)
            except FrappeError as error:
                failures += 1
                print(f"[{index}] error: {error}", file=sys.stderr)
            else:
                if args.json:
                    import json
                    print(json.dumps(result.to_dict()))
                    continue
                rows = "; ".join(
                    "\t".join(str(value) for value in row)
                    for row in result.rows[:5])
                more = "" if len(result) <= 5 else \
                    f" (+{len(result) - 5} more)"
                print(f"[{index}] {len(result)} rows in "
                      f"{result.stats.elapsed_seconds * 1000:.1f} ms: "
                      f"{rows}{more}")
        wait = frappe.counters().histogram("server.queue_wait_seconds")
        max_wait = (wait.max or 0.0) if wait is not None else 0.0
        print(f"({len(futures)} queries, {failures} failed, "
              f"max queue wait {max_wait * 1000:.1f} ms)",
              file=sys.stderr)
    return 1 if failures else 0


def _cmd_serve_http(args: argparse.Namespace) -> int:
    from repro.server.http import ExecutorBackend, HttpServer
    if args.shards is not None:
        from repro.server.shard import ShardBackend, ShardRouter
        config = _store_config(args)
        if not config.mmap:
            config = dataclasses.replace(config, mmap=True)
        router = ShardRouter(
            args.shards,
            args.replicas if args.replicas > 0 else 2,
            config=config)
        backend = ShardBackend(
            router, workers=args.workers, queue_capacity=args.queue,
            max_per_client=args.max_per_client)
        backend_alive = router.alive()
        topology = (f"{router.shard_count} shards x "
                    f"{backend_alive[0] if backend_alive else 0} "
                    f"replica processes + gateway")
    elif args.replicas > 0:
        from repro.server.replica import ReplicaBackend, ReplicaSet
        config = _store_config(args)
        if not config.mmap:
            config = dataclasses.replace(config, mmap=True)
        replicas = ReplicaSet(args.store, args.replicas, config=config)
        backend = ReplicaBackend(
            replicas, workers=args.workers,
            queue_capacity=args.queue,
            max_per_client=args.max_per_client)
        topology = f"{args.replicas} mmap replica processes " \
                   f"(pids {replicas.pids()})"
    else:
        frappe = Frappe.open(args.store, config=_store_config(args))
        backend = ExecutorBackend(
            frappe, workers=args.workers, queue_capacity=args.queue,
            max_per_client=args.max_per_client)
        topology = f"in-process pool of {args.workers} threads"
    server = HttpServer(backend, host=args.host, port=args.http)
    print(f"frappe serving http://{args.host}:{args.http} "
          f"({topology}); POST /v1/query, GET /v1/health, "
          "GET /v1/metrics; Ctrl-C to stop", file=sys.stderr)
    server.run()
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    with _open(args.store) as frappe:
        print(frappe.engine.explain(args.cypher))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.cypher import QueryOptions
    with _open(args.store, args) as frappe:
        options = QueryOptions(
            timeout=args.timeout, profile=True,
            use_reachability_rewrite=False if args.no_rewrite else None)
        result = frappe.query(args.cypher, options=options)
        plan = result.profile
        print(plan.pretty())
        print(f"({len(result)} rows, "
              f"{result.stats.elapsed_seconds * 1000:.1f} ms, "
              f"{plan.total_db_hits()} db hits, "
              f"cache hit ratio {frappe.cache_hit_ratio():.2f})")
        hottest = plan.hottest()
        if hottest is not None and hottest.time_ms is not None:
            print(f"hottest operator: {hottest.name} "
                  f"({hottest.time_ms:.1f} ms)")
    return 0


def _cmd_refs(args: argparse.Namespace) -> int:
    with _open(args.store) as frappe:
        targets = frappe.search(args.name, args.node_type)
        total = 0
        for target in targets:
            info = frappe.describe(target)
            references = frappe.find_references(target)
            total += len(references)
            print(f"{info['type']} {info.get('name', '')} "
                  f"({len(references)} references)")
            for reference in references:
                source = frappe.describe(reference.from_node)
                location = (f"file {reference.use_file_id} line "
                            f"{reference.use_start_line}"
                            if reference.use_start_line is not None
                            else "")
                print(f"  {reference.edge_type:<22} from "
                      f"{source.get('name', '')} {location}")
        print(f"({total} references across {len(targets)} symbols)")
    return 0


def _cmd_cycles(args: argparse.Namespace) -> int:
    with _open(args.store) as frappe:
        edge_types = tuple(name.strip()
                           for name in args.edges.split(",") if name)
        cycles = frappe.cycles(edge_types)
        for index, cycle in enumerate(cycles):
            names = ", ".join(
                str(frappe.view.node_property(node, "short_name"))
                for node in cycle)
            print(f"cycle {index} ({len(cycle)} members): {names}")
        print(f"({len(cycles)} cycles over {args.edges})")
    return 0


def _cmd_slice(args: argparse.Namespace) -> int:
    with _open(args.store) as frappe:
        nodes = (frappe.forward_slice(args.function) if args.forward
                 else frappe.backward_slice(args.function))
        for node_id in sorted(nodes):
            info = frappe.describe(node_id)
            print(f"{info['type']:<14} {info.get('name', '')}")
        print(f"({len(nodes)} entities)")
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    with _open(args.store) as frappe:
        root = build_hierarchy(frappe.view)
        highlights: set[int] = set()
        for name in args.highlight:
            found = frappe.search(name)
            highlights |= overlay_nodes(frappe.view, root, found)
        if args.svg:
            box = layout_map(root, 1000, 700)
            with open(args.svg, "w", encoding="utf-8") as handle:
                handle.write(render_svg(box, highlights=highlights))
            print(f"wrote {args.svg}")
        else:
            box = layout_map(root, float(args.width * 10),
                             float(args.height * 10))
            print(render_ascii(box, args.width, args.height,
                               highlights=highlights))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    with _open(args.store) as frappe:
        metrics = frappe.metrics()
        print(f"nodes:   {metrics.node_count}")
        print(f"edges:   {metrics.edge_count}")
        print(f"density: {metrics.density:.6g}")
        print(f"ratio:   1:{metrics.edge_node_ratio:.1f}")
        sizes = GraphStore.size_breakdown(args.store)
        for category in ("properties", "nodes", "relationships",
                         "indexes", "total"):
            print(f"{category:<14} {sizes[category] / 1024:10.1f} KiB")
        print(f"top {args.top} hubs:")
        for node_id, degree in stats.top_degree_nodes(frappe.view,
                                                      args.top):
            name = frappe.view.node_property(node_id, "short_name")
            print(f"  {degree:>8}  {name}")
        print("node types:")
        node_types = stats.node_type_distribution(frappe.view)
        for type_name, count in sorted(node_types.items(),
                                       key=lambda kv: -kv[1])[:args.top]:
            print(f"  {count:>8}  {type_name}")
        print("edge types:")
        edge_types = stats.edge_type_distribution(frappe.view)
        for type_name, count in sorted(edge_types.items(),
                                       key=lambda kv: -kv[1])[:args.top]:
            print(f"  {count:>8}  {type_name}")
    return 0


def _cmd_shard_split(args: argparse.Namespace) -> int:
    manifest = storage.split_store(args.store, args.out, args.shards,
                                   by="subtree")
    for entry in manifest["shards"]:
        prefixes = ",".join(entry["path_prefixes"]) or "-"
        print(f"{entry['directory']}: {entry['nodes']} nodes, "
              f"{entry['edges']} edges, {entry['ghosts']} ghosts, "
              f"{entry['boundary_edges']} boundary edges "
              f"[{prefixes}]")
    source = manifest["source"]
    print(f"split {source['node_count']} nodes / "
          f"{source['edge_count']} edges into "
          f"{manifest['shard_count']} shards -> {args.out}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.workloads import generate_kernel_graph
    from repro.workloads.profiles import UEK_PROFILE
    profile = UEK_PROFILE.scaled(args.scale)
    graph = generate_kernel_graph(profile, args.seed)
    sizes = GraphStore.write(graph, args.out)
    print(f"generated {graph.node_count()} nodes, "
          f"{graph.edge_count()} edges "
          f"({sizes['total'] / 1024 / 1024:.1f} MiB store) -> {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
