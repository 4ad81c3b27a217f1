"""Command-line entry points.

Exit codes: 0 success, 1 domain error (unknown lemma, bad lexicon,
unreadable file...), 2 usage error.  Results go to stdout, diagnostics
to stderr.
"""

import argparse
import os
import sys

from . import analyzer, evaluate, pipeline, rules
from .errors import ArabverbError, NoEntries
from .lexicon import load_lexicon
from .translit import to_script


def _default_lexicon():
    return os.path.join(os.path.dirname(__file__), "data", "sample_lexicon.tsv")


def _positive_int(text):
    """argparse type of --max: an integer >= 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError("expected an integer >= 1, got %r" % text)
    return int(text)


def _load(path):
    """The entries of the lemma lexicon at ``path``, each rejected line
    printed to stderr."""
    try:
        report = load_lexicon(path)
    except NoEntries as exc:
        _print_diagnostics(path, exc.diagnostics)
        raise
    _print_diagnostics(path, report.diagnostics)
    return report.entries


def _generate(path, entries, ruleset=None, strict=False):
    """(forms, stats) of ``entries``, of the lemma lexicon at ``path``, each
    failed entry printed to stderr; NoEntries if none of them generated.
    No entries is no error: a query that reaches none answers as a miss."""
    forms, stats = pipeline.generate_all(entries, ruleset, strict=strict)
    for failure in stats.failures:
        print(failure, file=sys.stderr)
    if entries and not stats.lemma_count:
        raise NoEntries("no entry of %s generated" % path)
    return forms, stats


def _print_diagnostics(path, diagnostics):
    for lineno, message in diagnostics:
        print("%s:%d: %s" % (path, lineno, message), file=sys.stderr)


def cmd_generate(args):
    ruleset = rules.load_rules(args.rules) if args.rules else None
    forms, stats = _generate(args.lexicon, _load(args.lexicon), ruleset, args.strict)
    pipeline.write_lexicon(forms, args.out)
    if args.stats:
        pipeline.write_stats(stats, args.stats)
    print("%d lemmas -> %d forms -> %s" % (stats.lemma_count, stats.form_count, args.out))
    return 0


def _index(path, entries):
    """The FormIndex of ``entries``, of the lemma lexicon at ``path``."""
    return analyzer.FormIndex(_generate(path, entries)[0])


def cmd_inflect(args):
    entries = analyzer.entries_answering(_load(args.lexicon), "lemma", args.lemma)
    tables = analyzer.inflect_verb(_index(args.lexicon, entries), args.lemma)
    for code, rows in tables.items():
        print("# code %s" % code)
        for cell, surface in rows:
            if args.voice and cell.voice.lower() != args.voice:
                continue
            print("%s\t%s\t%s\t%s\t%s" % (cell.tag, cell.paradigm, cell.voice,
                                          surface, to_script(surface)))
    return 0


def cmd_derive(args):
    entries = analyzer.entries_answering(_load(args.lexicon), "root", args.root)
    pairs = analyzer.derive_root(_index(args.lexicon, entries), args.root)
    for lemma, label in pairs:
        print("%s\t%s\t%s" % (lemma, to_script(lemma), label))
    return 0


def cmd_analyze(args):
    entries = analyzer.entries_answering(_load(args.lexicon), "form", args.form)
    hits = analyzer.analyze(_index(args.lexicon, entries), args.form)
    for a in hits[: args.max]:
        print("%s\t%s\t%s\t%s\t%s\t%s\t%s" % (
            a.surface, a.lemma, a.root, a.label, a.tag, a.paradigm, a.voice))
    return 0


def cmd_evaluate(args):
    report, _diff = evaluate.evaluate_files(
        args.reference, args.generated, args.exclude, args.report)
    print("correct=%d incorrect=%d no-data=%d excluded=%d precision=%.2f%%" % (
        report.correct, report.incorrect, report.no_data, report.excluded,
        report.precision * 100.0))
    return 0


def cmd_stats(args):
    _forms, stats = _generate(args.lexicon, _load(args.lexicon))
    for key, value in stats.as_rows():
        print("%s\t%s" % (key, value))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="arabverb",
                                     description="Arabic verbal morphology engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="expand a lemma lexicon into inflected forms")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--rules")
    p.add_argument("--out", required=True)
    p.add_argument("--stats")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("inflect", help="print the 109-form paradigm of a lemma")
    p.add_argument("--lemma", required=True)
    p.add_argument("--voice", choices=["act", "pas"])
    p.add_argument("--lexicon", default=_default_lexicon())
    p.set_defaults(func=cmd_inflect)

    p = sub.add_parser("derive", help="list the lemmas generated from a root")
    p.add_argument("--root", required=True)
    p.add_argument("--lexicon", default=_default_lexicon())
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("analyze", help="analyses of a (partially) diacritized form")
    p.add_argument("--form", required=True)
    p.add_argument("--max", type=_positive_int)
    p.add_argument("--lexicon", default=_default_lexicon())
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("evaluate", help="compare generated forms against a reference")
    p.add_argument("--reference", required=True)
    p.add_argument("--generated", required=True)
    p.add_argument("--exclude")
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("stats", help="quantitative data for a lemma lexicon")
    p.add_argument("--lexicon", required=True)
    p.set_defaults(func=cmd_stats)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ArabverbError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
