"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``parse "sentence"``        — link-grammar parse with an ASCII diagram;
* ``check "sentence"``        — full supervision verdict (syntax + semantics);
* ``ask "question"``          — the QA subsystem's answer;
* ``repair "sentence"``       — suggested corrections;
* ``simulate [--rounds N]``   — run a seeded classroom and print reports;
* ``serve [--port N]``        — HTTP front door over the live system;
* ``recover DIR [--json]``    — recover a durable data directory, compact it;
* ``health DIR [--json]``     — recover and print the resilience health registry;
* ``bench [--quick]``         — run the perf harness, write BENCH_parse.json;
* ``export-scorm DIR``        — write the SCORM content package;
* ``ontology [--format x]``   — dump the knowledge body (xml or ddl).
"""

from __future__ import annotations

import argparse
import sys

from repro.agents import SemanticAgent
from repro.chatroom.runtime import MULTI_WORKER_MODES, RUNTIME_MODES
from repro.linkgrammar import Parser, SentenceRepairer
from repro.linkgrammar.diagram import render
from repro.linkgrammar.lexicon import default_dictionary
from repro.linkgrammar.robust import RobustAnalyzer
from repro.ontology import render_script, to_xml, translate
from repro.ontology.domains import default_ontology
from repro.qa import QASystem


def _cmd_parse(args: argparse.Namespace) -> int:
    parser = Parser(default_dictionary())
    result = parser.parse(args.text)
    print(f"linkages: {result.total_count}   nulls: {result.null_count}   "
          f"cost: {result.best.cost if result.best else '-'}")
    if result.unknown_words:
        print(f"unknown words: {', '.join(result.unknown_words)}")
    if result.best is not None and result.best.links:
        print(render(result.best, show_wall=args.wall))
    return 0 if result.null_count == 0 else 1


def _cmd_check(args: argparse.Namespace) -> int:
    analyzer = RobustAnalyzer(default_dictionary())
    diagnosis = analyzer.analyze(args.text)
    print(f"syntax : {'OK' if diagnosis.is_correct else 'PROBLEMS'}")
    for issue in diagnosis.issues:
        print(f"  [{issue.kind.value}] {issue.message}")
    if diagnosis.is_correct:
        agent = SemanticAgent(default_ontology())
        review = agent.review(args.text)
        print(f"semantic: {review.verdict.value}")
        for pair in review.pairs:
            status = "ok" if pair.holds else "PROBLEM"
            print(f"  {pair.left} ~ {pair.right}: distance={pair.distance} [{status}]")
        for suggestion in review.suggestions:
            print(f"  hint: {suggestion}")
        return 0 if not review.is_anomalous else 1
    return 1


def _cmd_ask(args: argparse.Namespace) -> int:
    qa = QASystem(default_ontology())
    answer = qa.answer(args.text)
    print(f"[{answer.kind.value} via {answer.source}]")
    print(answer.text if answer.answered else "(no answer found)")
    return 0 if answer.answered else 1


def _cmd_repair(args: argparse.Namespace) -> int:
    repairer = SentenceRepairer(default_dictionary())
    repairs = repairer.repair(args.text)
    if not repairs:
        print("no repair needed (or none found)")
        return 0
    for repair in repairs:
        print(f"{repair.text}   <- {repair.edit}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.core.system import ELearningSystem, SystemConfig
    from repro.corpus import StatisticAnalyzer
    from repro.simulation import ClassroomSession

    config = SystemConfig(
        runtime_mode=args.runtime,
        shards=args.shards,
        max_pending=args.max_pending,
        data_dir=args.data_dir,
        fsync=args.fsync,
        snapshot_every=args.snapshot_every,
        corpus_segment_records=args.corpus_segment_records,
    )
    system = ELearningSystem.with_defaults(config)
    try:
        session = ClassroomSession(system, learners=args.learners, seed=args.seed)
        session.run(rounds=args.rounds)
        system.drain()  # flush queued agent work under deferred-drain runtimes
    finally:
        system.close()  # release the parallel worker pool
    stats = system.stats
    if args.runtime in MULTI_WORKER_MODES:
        print(f"runtime={args.runtime} workers={args.shards} "
              f"worker_messages={system.runtime.worker_loads()}")
    if system.supervision_shed:
        print(f"shed={system.supervision_shed} (max_pending={args.max_pending})")
        for event in system.runtime.shed_events():
            print(f"  shed room={event.room} seq={event.seq} "
                  f"shard={event.shard} reason={event.reason}")
    if system.quarantined:
        for row in system.resilience.quarantine.rows():
            print(f"  quarantined room={row.room} seq={row.seq} "
                  f"stage={row.stage} error={row.error}")
    print(f"messages={stats.messages} sentences={stats.sentences} "
          f"syntax_errors={stats.syntax_errors} "
          f"semantic={stats.semantic_violations + stats.misconceptions} "
          f"questions={stats.questions_answered}/{stats.questions}")
    for kind, count in StatisticAnalyzer(system.corpus).most_common_mistakes(5):
        print(f"  mistake {kind}: {count}")
    for pair in system.faq_top(3):
        print(f"  faq [{pair.count}x] {pair.question}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.chatroom.runtime import DrainBudget
    from repro.core.system import ELearningSystem, SystemConfig
    from repro.serving import ChatGateway, ChatHTTPServer

    budget = None
    if args.drain_pending is not None or args.drain_interval is not None:
        budget = DrainBudget(
            max_pending_posts=args.drain_pending, max_interval=args.drain_interval
        )
    elif args.runtime not in ("inline", "queued"):
        # A deferred-drain runtime behind a network front door must
        # drain itself — nobody is calling drain() from a socket.
        budget = DrainBudget(max_pending_posts=32, max_interval=8.0)
    config = SystemConfig(
        runtime_mode=args.runtime,
        shards=args.shards,
        drain_budget=budget,
        data_dir=args.data_dir,
        fsync=args.fsync,
        snapshot_every=args.snapshot_every,
    )
    system = ELearningSystem.with_defaults(config)
    try:
        for name in args.room or []:
            system.open_room(name)
        gateway = ChatGateway(system)
        httpd = ChatHTTPServer(
            gateway, host=args.host, port=args.port, verbose=args.verbose
        )
        host, port = httpd.server_address[:2]
        print(f"serving on http://{host}:{port} (runtime={args.runtime}, "
              f"rooms={len(system.server.rooms)})")
        try:
            httpd.serve_forever()
        except KeyboardInterrupt:
            print("\nshutting down")
        finally:
            httpd.server_close()
    finally:
        system.close()  # flush queued supervision, final snapshot, pools
    return 0


def _recovered_state(system) -> dict:
    """The machine-readable state summary ``recover --json`` emits."""
    stats = system.stats
    return {
        "rooms": len(system.server.rooms),
        "messages": system.server.total_messages(),
        "corpus": len(system.corpus),
        "profiles": len(system.profiles),
        "faq": len(system.faq),
        "sentences": stats.sentences,
        "syntax_errors": stats.syntax_errors,
        "questions": stats.questions,
        "questions_answered": stats.questions_answered,
        "quarantined": system.quarantined,
    }


def _cmd_recover(args: argparse.Namespace) -> int:
    import json

    from repro.core.system import ELearningSystem, SystemConfig

    system, report = ELearningSystem.recover(
        args.data_dir,
        SystemConfig(
            fsync=args.fsync,
            snapshot_every=args.snapshot_every,
            corpus_segment_records=args.corpus_segment_records,
        ),
    )
    if args.json:
        print(json.dumps(
            {"report": report.to_dict(), "state": _recovered_state(system)},
            indent=2,
        ))
    else:
        print(report.summary())
        stats = system.stats
        print(f"recovered state: rooms={len(system.server.rooms)} "
              f"messages={system.server.total_messages()} "
              f"corpus={len(system.corpus)} profiles={len(system.profiles)} "
              f"faq={len(system.faq)}")
        print(f"supervision: sentences={stats.sentences} "
              f"syntax_errors={stats.syntax_errors} "
              f"questions={stats.questions_answered}/{stats.questions}")
    system.close()  # compacts: the fresh final snapshot covers the log
    return 0 if report.clean else 1


def _cmd_health(args: argparse.Namespace) -> int:
    import json

    from repro.core.system import ELearningSystem, SystemConfig

    system, report = ELearningSystem.recover(
        args.data_dir,
        SystemConfig(fsync=args.fsync, corpus_segment_records=args.corpus_segment_records),
    )
    health = system.health()
    if args.json:
        print(json.dumps(
            {"health": health.to_dict(), "recovery": report.to_dict()}, indent=2
        ))
    else:
        print(health.summary())
        print(f"recovery: {'clean' if report.clean else 'degraded'}")
    # Inspect-only: close the stores without compacting the directory.
    if system.durability is not None:
        system.durability.close()
    system.runtime.close()
    return 0 if health.status == "ok" and report.clean else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.evaluation.perfbench import run_from_args

    return run_from_args(args)


def _cmd_export_scorm(args: argparse.Namespace) -> int:
    from repro.standards import write_package

    package = write_package(default_ontology(), args.directory)
    files = len(list(package.iterdir()))
    print(f"wrote {files} files to {package}")
    return 0


def _cmd_ontology(args: argparse.Namespace) -> int:
    ontology = default_ontology()
    if args.format == "xml":
        print(to_xml(ontology))
    else:
        print(render_script(translate(ontology)), end="")
    return 0


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Semantic chat-room supervision (ICDCSW'05 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("parse", help="link-grammar parse with diagram")
    p.add_argument("text")
    p.add_argument("--wall", action="store_true", help="show the virtual wall")
    p.set_defaults(func=_cmd_parse)

    p = commands.add_parser("check", help="syntax + semantic supervision verdict")
    p.add_argument("text")
    p.set_defaults(func=_cmd_check)

    p = commands.add_parser("ask", help="answer a question from the ontology")
    p.add_argument("text")
    p.set_defaults(func=_cmd_ask)

    p = commands.add_parser("repair", help="suggest corrections for a sentence")
    p.add_argument("text")
    p.set_defaults(func=_cmd_repair)

    p = commands.add_parser("simulate", help="run a seeded classroom session")
    p.add_argument("--rounds", type=int, default=5)
    p.add_argument("--learners", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--runtime",
        choices=RUNTIME_MODES,
        default="queued",
        help="supervision scheduling mode (see docs/runtime.md)",
    )
    p.add_argument("--shards", type=int, default=4,
                   help="shard/worker count for the multi-worker "
                        "runtimes (sharded, parallel)")
    p.add_argument("--max-pending", type=int, default=None,
                   help="per-shard supervision queue bound; overloaded "
                        "shards shed their oldest pending message")
    p.add_argument("--data-dir", default=None,
                   help="durable-state directory (write-ahead log + "
                        "snapshots; see docs/durability.md)")
    p.add_argument("--fsync", choices=["always", "batch", "never"],
                   default="batch",
                   help="when log/snapshot writes reach the disk")
    p.add_argument("--snapshot-every", type=int, default=256,
                   help="journalled events between periodic snapshots")
    p.add_argument("--corpus-segment-records", type=int, default=None,
                   help="corpus disk-tier freeze cadence: drain barriers "
                        "seal this many in-RAM records into mmap-backed "
                        "segment files (see docs/corpus.md)")
    p.set_defaults(func=_cmd_simulate)

    p = commands.add_parser(
        "serve",
        help="HTTP front door: POST messages, long-poll transcripts, SSE "
             "verdict stream (see docs/serving.md)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080,
                   help="listening port (0 binds an ephemeral port)")
    p.add_argument("--room", action="append", default=None, metavar="NAME",
                   help="pre-create a room at startup (repeatable); rooms "
                        "can also be created over HTTP (POST /rooms)")
    p.add_argument(
        "--runtime",
        choices=RUNTIME_MODES,
        default="queued",
        help="supervision scheduling mode behind the front door",
    )
    p.add_argument("--shards", type=int, default=4,
                   help="shard/worker count for the multi-worker runtimes")
    p.add_argument("--drain-pending", type=int, default=None,
                   help="auto-drain once this many supervision items are "
                        "pending (deferred runtimes default to 32)")
    p.add_argument("--drain-interval", type=float, default=None,
                   help="auto-drain once this much virtual time passed "
                        "since the last drain (deferred default: 8.0)")
    p.add_argument("--data-dir", default=None,
                   help="durable-state directory (write-ahead log + "
                        "snapshots; see docs/durability.md)")
    p.add_argument("--fsync", choices=["always", "batch", "never"],
                   default="batch",
                   help="when log/snapshot writes reach the disk")
    p.add_argument("--snapshot-every", type=int, default=256,
                   help="journalled events between periodic snapshots")
    p.add_argument("--verbose", action="store_true",
                   help="log every request line to stderr")
    p.set_defaults(func=_cmd_serve)

    p = commands.add_parser(
        "recover", help="recover a durable data directory and compact it"
    )
    p.add_argument("data_dir", help="directory written by simulate --data-dir")
    p.add_argument("--fsync", choices=["always", "batch", "never"],
                   default="batch",
                   help="fsync policy for the compacting snapshot")
    p.add_argument("--snapshot-every", type=int, default=256,
                   help="snapshot cadence for the recovered system")
    p.add_argument("--corpus-segment-records", type=int, default=None,
                   help="corpus disk-tier freeze cadence; required to "
                        "recover a directory whose snapshots reference "
                        "frozen segments")
    p.add_argument("--json", action="store_true",
                   help="emit the report and state summary as JSON "
                        "(exit code unchanged: 0 iff recovery was clean)")
    p.set_defaults(func=_cmd_recover)

    p = commands.add_parser(
        "health",
        help="recover a data directory and print its resilience health "
             "registry (breakers, quarantine, queues, counters)",
    )
    p.add_argument("data_dir", help="directory written by simulate --data-dir")
    p.add_argument("--fsync", choices=["always", "batch", "never"],
                   default="batch", help="fsync policy while inspecting")
    p.add_argument("--corpus-segment-records", type=int, default=None,
                   help="corpus disk-tier freeze cadence (match the "
                        "directory's simulate run)")
    p.add_argument("--json", action="store_true",
                   help="emit the health registry and recovery report as JSON")
    p.set_defaults(func=_cmd_health)

    p = commands.add_parser("bench", help="run the perf harness deterministically")
    # Imported at parser-build time (not in _cmd_bench) so the flag
    # definitions live in exactly one place; perfbench's module level is
    # stdlib-only, so this costs nothing for the other subcommands.
    from repro.evaluation.perfbench import add_bench_arguments

    add_bench_arguments(p)
    p.set_defaults(func=_cmd_bench)

    p = commands.add_parser("export-scorm", help="write the SCORM content package")
    p.add_argument("directory")
    p.set_defaults(func=_cmd_export_scorm)

    p = commands.add_parser("ontology", help="dump the knowledge body")
    p.add_argument("--format", choices=["xml", "ddl"], default="xml")
    p.set_defaults(func=_cmd_ontology)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
