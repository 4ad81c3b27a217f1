import os
import random

import pytest

from arabverb import cli, pipeline
from arabverb.analyzer import FormIndex
from arabverb.cli import main
from arabverb.translit import to_script
from conftest import DATA, GOLD_LEXICON, SAMPLE_LEXICON
from test_analyzer import queries_of

# A good entry, then QI (a 4-radical pattern) on a 3-radical root.
QI_ON_THREE_RADICALS = (
    "كَتَبَ\tktb\t00L0003\tgood\n"
    "كَتَبَ\tktb\t00H0000\tQI on three radicals\n"
)


def test_generate_and_stats(tmp_path, capsys):
    out = tmp_path / "inflected.tsv"
    stats = tmp_path / "stats.tsv"
    rc = main(["generate", "--lexicon", SAMPLE_LEXICON, "--out", out.as_posix(),
               "--stats", stats.as_posix(), "--strict"])
    assert rc == 0
    assert "24 lemmas -> 2616 forms" in capsys.readouterr().out
    assert out.read_text(encoding="utf-8").count("\n") == 2617
    assert "forms\t2616" in stats.read_text(encoding="utf-8")


# With or without --strict, the entry fails at expansion.
@pytest.mark.parametrize("extra, reported", [(["--strict"], "failed at OpOutOfRange"),
                                             ([], "failed at OpOutOfRange")])
def test_generate_reports_entry_that_cannot_generate(tmp_path, capsys, extra, reported):
    lexicon = tmp_path / "lex.tsv"
    lexicon.write_text(QI_ON_THREE_RADICALS, encoding="utf-8")
    out = tmp_path / "inflected.tsv"
    rc = main(["generate", "--lexicon", lexicon.as_posix(), "--out", out.as_posix()] + extra)
    assert rc == 0
    captured = capsys.readouterr()
    assert "1 lemmas -> 109 forms" in captured.out
    assert reported in captured.err


@pytest.mark.parametrize("missing", ["--lexicon", "--rules"])
def test_missing_input_file_is_domain_error(tmp_path, capsys, missing):
    paths = {"--lexicon": SAMPLE_LEXICON, "--rules": os.path.join(DATA, "surface_rules.tsv")}
    paths[missing] = (tmp_path / "missing.tsv").as_posix()
    rc = main(["generate", "--lexicon", paths["--lexicon"], "--rules", paths["--rules"],
               "--out", (tmp_path / "out.tsv").as_posix()])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing.tsv" in err


def _rules_without(tmp_path, rule_id):
    """A rule file of the bundled cascade without rule ``rule_id``."""
    with open(os.path.join(DATA, "surface_rules.tsv"), encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith(rule_id + "\t")]
    rules = tmp_path / "rules.tsv"
    rules.write_text("".join(lines), encoding="utf-8")
    return rules


def test_generate_under_other_rules(tmp_path):
    rules = _rules_without(tmp_path, "o05")
    outputs = {}
    for name, extra in (("default", []), ("other", ["--rules", rules.as_posix()])):
        out = tmp_path / (name + ".tsv")
        assert main(["generate", "--lexicon", SAMPLE_LEXICON, "--out", out.as_posix()] + extra) == 0
        outputs[name] = out.read_bytes()
    assert outputs["other"] != outputs["default"]


# Without p22 (prosthetic alif) the 11 lemmas that begin with Ai no longer
# regenerate: --strict checks them under the rules of the run.
def test_strict_runs_under_the_rules_of_the_run(tmp_path, capsys):
    rules = _rules_without(tmp_path, "p22")
    rc = main(["generate", "--lexicon", SAMPLE_LEXICON, "--rules", rules.as_posix(),
               "--strict", "--out", (tmp_path / "out.tsv").as_posix()])
    assert rc == 0
    captured = capsys.readouterr()
    assert "13 lemmas -> 1417 forms" in captured.out
    assert len(captured.err.splitlines()) == captured.err.count("does not regenerate") == 11


# Two homographs fail: each line names its own root and code.
def test_failed_homographs_are_told_apart(tmp_path, capsys):
    rules = _rules_without(tmp_path, "p22")
    rc = main(["generate", "--lexicon", SAMPLE_LEXICON, "--rules", rules.as_posix(),
               "--strict", "--out", (tmp_path / "out.tsv").as_posix()])
    assert rc == 0
    lines = [line for line in capsys.readouterr().err.splitlines()
             if line.startswith("entry Aif·çan·lala failed at BadLexicon: ")]
    assert len(lines) == len(set(lines)) == 2
    assert lines[0].endswith("; root fçl, code 02H2000")
    assert lines[1].endswith("; root fçll, code 02H0000")


# The rule names a second capture of a one-capture pattern.  Before load_rules
# checked it, the rule file loaded and generation died at its first match.
@pytest.mark.parametrize("replacement", ["2a", "0"])
def test_generate_rejects_rule_naming_a_missing_capture(tmp_path, capsys, replacement):
    with open(os.path.join(DATA, "surface_rules.tsv"), encoding="utf-8") as fh:
        lines = fh.readlines()
    lines.append("o99\tortho\tK\t%s\t\t\tno such capture\n" % replacement)
    rules = tmp_path / "rules.tsv"
    rules.write_text("".join(lines), encoding="utf-8")
    out = tmp_path / "out.tsv"
    rc = main(["generate", "--lexicon", SAMPLE_LEXICON, "--rules", rules.as_posix(),
               "--out", out.as_posix()])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: rule file line %d: rule o99: " % len(lines))
    assert "Traceback" not in err
    assert not out.exists()


# A rule file with no rule (empty, or only comments) used to load as the
# identity cascade, and generate wrote unrewritten surfaces with exit 0.
@pytest.mark.parametrize("text", ["", "# comments only\n\n"], ids=["empty", "comments-only"])
def test_generate_rejects_rule_file_without_rules(tmp_path, capsys, text):
    rules = tmp_path / "rules.tsv"
    rules.write_text(text, encoding="utf-8")
    out = tmp_path / "out.tsv"
    rc = main(["generate", "--lexicon", SAMPLE_LEXICON, "--rules", rules.as_posix(),
               "--out", out.as_posix()])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and rules.as_posix() in err
    assert not out.exists()


def test_inflect_lemma(capsys):
    rc = main(["inflect", "--lemma", "فَعَلَ", "--voice", "act"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "3SM\tPERF\tACT\tfaçala" in out
    # three homographic codes, 57 active rows each
    assert out.count("# code") == 3


def test_inflect_unknown_lemma_is_domain_error(capsys):
    rc = main(["inflect", "--lemma", "زَحْلَقَ"])
    assert rc == 1
    assert capsys.readouterr().err == "error: lemma زَحْلَقَ is not in the lexicon\n"


GENERATING_COMMANDS = {
    "generate": ["generate"],  # and --out
    "stats": ["stats"],
    "analyze": ["analyze", "--form", "كتب"],
    "inflect": ["inflect", "--lemma", "كَتَبَ"],
    "derive": ["derive", "--root", "ktb"],
}


def _run(command, tmp_path, text):
    lexicon = tmp_path / "lex.tsv"
    lexicon.write_text(text, encoding="utf-8", errors="surrogateescape")  # a lone surrogate writes its byte
    argv = GENERATING_COMMANDS[command] + ["--lexicon", lexicon.as_posix()]
    if command == "generate":
        argv += ["--out", (tmp_path / "out.tsv").as_posix()]
    return main(argv)


@pytest.mark.parametrize("command", GENERATING_COMMANDS)
def test_every_generating_command_reports_failed_entries(tmp_path, capsys, command):
    assert _run(command, tmp_path, QI_ON_THREE_RADICALS) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "entry kataba failed at OpOutOfRange" in err[0]


# A UTF-16 byte order mark is not UTF-8: it rejects its line, and the
# other lines still generate.
@pytest.mark.parametrize("command", GENERATING_COMMANDS)
def test_every_generating_command_reports_a_line_not_utf8(tmp_path, capsys, command):
    assert _run(command, tmp_path, "\udcff\udcfe\n" + QI_ON_THREE_RADICALS.splitlines(True)[0]) == 0
    captured = capsys.readouterr()
    assert captured.err == "%s:1: byte 0xff at character 1 is not UTF-8\n" % (tmp_path / "lex.tsv").as_posix()
    assert captured.out


# Any other input file that is not UTF-8 is a domain error.
@pytest.mark.parametrize("argv", [
    ["evaluate", "--reference", "{bad}", "--generated", "{bad}", "--report", "{out}"],
    ["generate", "--lexicon", SAMPLE_LEXICON, "--rules", "{bad}", "--out", "{out}"],
], ids=["evaluate", "generate-rules"])
def test_input_file_not_utf8_is_domain_error(tmp_path, capsys, argv):
    bad, out = tmp_path / "bad.tsv", tmp_path / "out.tsv"
    bad.write_bytes(b"\xff\xfe" + "façala\t3SM\tPERF\tACT\tfaçala\n".encode("utf-8"))
    assert main([arg.format(bad=bad.as_posix(), out=out.as_posix()) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.endswith(
        "%s is not UTF-8: byte 0xff (invalid start byte)\n" % bad.as_posix())
    assert "Traceback" not in captured.err and not captured.out and not out.exists()


# No valid line, or no valid entry that generates: the reasons, then the error.
@pytest.mark.parametrize("text, reason", [
    ("كَتَبَ\tktb\t09L0003\n", "lex.tsv:1: digit 2 of '09L0003' out of range"),
    (QI_ON_THREE_RADICALS.splitlines(True)[1], "entry kataba failed at OpOutOfRange"),
], ids=["no-valid-line", "no-entry-generates"])
@pytest.mark.parametrize("command", GENERATING_COMMANDS)
def test_lexicon_with_nothing_to_generate_is_domain_error(tmp_path, capsys, command, text, reason):
    assert _run(command, tmp_path, text) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 2 and reason in err[0]
    assert err[1].startswith("error: ") and "lex.tsv" in err[1]
    assert "Traceback" not in captured.err and not captured.out
    assert not (tmp_path / "out.tsv").exists()


# A good entry, and one that fails and shares no lemma, root or free
# consonant with it.  Each query command expands only the entries that its
# query can reach, and reports the failures of those alone.
UNRELATED_FAILURE = QI_ON_THREE_RADICALS.splitlines(True)[0] + "دَرَسَ\tdrs\t00H0000\tQI on three radicals\n"
QUERIES_OF_THE_FAILED_ENTRY = {
    "analyze": ["analyze", "--form", "درس"],
    "inflect": ["inflect", "--lemma", "دَرَسَ"],
    "derive": ["derive", "--root", "drs"],
}
QUERIES_OF_NO_ENTRY = {
    "analyze": ["analyze", "--form", "زحلق"],
    "inflect": ["inflect", "--lemma", "زَحْلَقَ"],
    "derive": ["derive", "--root", "zHlq"],
}


@pytest.mark.parametrize("command", GENERATING_COMMANDS)
def test_a_query_command_reports_only_the_entries_it_expands(tmp_path, capsys, command):
    assert _run(command, tmp_path, UNRELATED_FAILURE) == 0
    captured = capsys.readouterr()
    assert captured.out
    if command in ("generate", "stats"):
        err = captured.err.splitlines()
        assert len(err) == 1 and "entry darasa failed at OpOutOfRange" in err[0]
    else:
        assert captured.err == ""


# It expanded the failed entry alone: its failure, then the error.
@pytest.mark.parametrize("command", QUERIES_OF_THE_FAILED_ENTRY)
def test_a_query_whose_entries_all_fail_is_domain_error(tmp_path, capsys, command):
    lexicon = tmp_path / "lex.tsv"
    lexicon.write_text(UNRELATED_FAILURE, encoding="utf-8")
    assert main(QUERIES_OF_THE_FAILED_ENTRY[command] + ["--lexicon", lexicon.as_posix()]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 2 and "entry darasa failed at OpOutOfRange" in err[0]
    assert err[1] == "error: no entry of %s generated" % lexicon.as_posix()
    assert not captured.out


# A query that reaches no entry expands none, so no entry's failure is
# printed, and it answers as a miss: analyze and derive print nothing, and
# inflect does not find the lemma.  Also when every entry of the lexicon fails.
@pytest.mark.parametrize("text", [UNRELATED_FAILURE, QI_ON_THREE_RADICALS.splitlines(True)[1]],
                         ids=["one-entry-fails", "every-entry-fails"])
@pytest.mark.parametrize("command", QUERIES_OF_NO_ENTRY)
def test_a_query_that_reaches_no_entry_answers_as_a_miss(tmp_path, capsys, command, text):
    lexicon = tmp_path / "lex.tsv"
    lexicon.write_text(text, encoding="utf-8")
    rc = main(QUERIES_OF_NO_ENTRY[command] + ["--lexicon", lexicon.as_posix()])
    captured = capsys.readouterr()
    assert not captured.out
    if command == "inflect":
        assert rc == 1 and captured.err == "error: lemma زَحْلَقَ is not in the lexicon\n"
    else:
        assert rc == 0 and captured.err == ""


@pytest.fixture(scope="module")
def lexicons(sample_forms, gold_forms, mixed_class_lexicon):
    """The path, forms and index of the whole of the sample, the gold and
    the mixed-class (perfbench, input seed 1) lemma lexicons."""
    mixed, mixed_forms = mixed_class_lexicon
    return {name: (path, forms, FormIndex(forms))
            for name, path, forms in (("sample", SAMPLE_LEXICON, sample_forms), ("gold", GOLD_LEXICON, gold_forms),
                                      ("mixed-class", mixed, mixed_forms))}


def _answers(monkeypatch, capsys, argv, whole):
    """The (exit code, stdout, stderr) of ``argv`` as it runs, then with its
    index replaced by ``whole``, the index of every entry, as the command
    was before it selected entries; and how many entries it selected."""
    expanded = []

    def recorded(path, entries):
        expanded.append(len(entries))
        return index(path, entries)

    answers = []
    for index in (cli._index, lambda _path, _entries: whole):
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_index", recorded)
            rc = main(argv)
        answers.append((rc,) + tuple(capsys.readouterr()))
    return answers, expanded[0]


# Every analysis kind of each of 8 seeded surfaces (exact, partial, bare,
# in both alphabets, and a miss), and a skeleton with no free consonant,
# which reaches exactly the entries whose root has no free radical:
# answers equal, order included.
@pytest.mark.parametrize("which", ["sample", "gold", "mixed-class"])
def test_analyze_answers_as_over_the_whole_lexicon(monkeypatch, capsys, lexicons, ruleset, which):
    path, forms, whole = lexicons[which]
    free = set(pipeline.stand_ins(ruleset))
    no_free = sum(1 for p in forms.paradigms if not free.intersection(p.root))
    # The sample lexicon holds no root without a free radical, so there the
    # skeleton reaches no entry; gold and mixed-class must hold some.
    assert (no_free > 0) == (which != "sample")
    surfaces = sorted({s for p in forms.paradigms for s in p.surfaces})
    queries = queries_of(random.Random(which).sample(surfaces, 8), seed=len(surfaces))
    expanded, hits = [], 0
    for query in queries + ["ytmn"]:
        argv = ["analyze", "--form", query, "--lexicon", path]
        (filtered, unfiltered), n = _answers(monkeypatch, capsys, argv, whole)
        assert filtered == unfiltered, query
        assert filtered[0] == 0 and not filtered[2]
        expanded.append(n)
        hits += bool(filtered[1])
    assert expanded.pop() == no_free < len(forms.paradigms)
    assert sorted(expanded)[len(expanded) // 2] < len(forms.paradigms)
    assert 0 < len(queries) - hits < len(queries) / 4


@pytest.mark.parametrize("which", ["sample", "gold", "mixed-class"])
def test_inflect_and_derive_answer_as_over_the_whole_lexicon(monkeypatch, capsys, lexicons, which):
    path, forms, whole = lexicons[which]
    argvs = [["inflect", "--lemma", "zaHlaqa"], ["derive", "--root", "zHlq"]]
    for p in random.Random(which).sample(forms.paradigms, 12):
        argvs += [["inflect", "--lemma", p.lemma], ["inflect", "--lemma", to_script(p.lemma), "--voice", "pas"],
                  ["derive", "--root", p.root]]
    for argv in argvs:
        (filtered, unfiltered), _n = _answers(monkeypatch, capsys, argv + ["--lexicon", path], whole)
        assert filtered == unfiltered, argv
        assert bool(filtered[1]) == (argv[2] not in ("zaHlaqa", "zHlq"))


def test_derive_root(capsys):
    rc = main(["derive", "--root", "qwl", "--lexicon", GOLD_LEXICON])
    assert rc == 0
    out = capsys.readouterr().out
    assert "qaAla" in out and "قَالَ" in out


def test_analyze_form(capsys):
    rc = main(["analyze", "--form", "فعل", "--max", "5"])
    assert rc == 0
    assert len(capsys.readouterr().out.splitlines()) == 5


# A count below 1 is a usage error, not a silently shortened list.
@pytest.mark.parametrize("option, value", [("--max", "0"), ("--max", "-1")])
def test_count_below_one_is_usage_error(capsys, option, value):
    with pytest.raises(SystemExit) as err:
        main(["analyze", "--form", "فعل", option, value])
    assert err.value.code == 2
    assert "expected an integer >= 1, got %r" % value in capsys.readouterr().err


def test_analyze_unknown_character(capsys):
    rc = main(["analyze", "--form", "qq♣"])
    assert rc == 1


def test_evaluate_round_trip(tmp_path, capsys):
    out = tmp_path / "inflected.tsv"
    main(["generate", "--lexicon", SAMPLE_LEXICON, "--out", out.as_posix()])
    # project the inflected lexicon onto the normalized schema
    norm = tmp_path / "norm.tsv"
    with open(out, encoding="utf-8") as fh, open(norm, "w", encoding="utf-8") as nf:
        for line in fh:
            if line.startswith("#"):
                continue
            _, surface, lemma, _root, _code, tag, paradigm, voice = line.rstrip("\n").split("\t")
            nf.write("\t".join([lemma, tag, paradigm, voice, surface]) + "\n")
    report = tmp_path / "report.tsv"
    rc = main(["evaluate", "--reference", norm.as_posix(), "--generated", norm.as_posix(),
               "--report", report.as_posix()])
    assert rc == 0
    assert "precision=100.00%" in capsys.readouterr().out


def test_evaluate_rejects_inflected_lexicon(tmp_path, capsys):
    out = tmp_path / "inflected.tsv"
    assert main(["generate", "--lexicon", SAMPLE_LEXICON, "--out", out.as_posix()]) == 0
    capsys.readouterr()
    reference = tmp_path / "reference.tsv"
    reference.write_text("façala\t3SM\tPERF\tACT\tfaçala\n", encoding="utf-8")
    rc = main(["evaluate", "--reference", reference.as_posix(), "--generated", out.as_posix(),
               "--report", (tmp_path / "report.tsv").as_posix()])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "inflected.tsv line 2: expected 5 columns" in err
    assert "Traceback" not in err


def test_stats_command(capsys):
    rc = main(["stats", "--lexicon", SAMPLE_LEXICON])
    assert rc == 0
    assert "forms_per_lemma\t109.0" in capsys.readouterr().out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["inflect"])  # missing --lemma
    assert err.value.code == 2
