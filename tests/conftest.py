import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from arabverb import lexicon, pipeline, rules

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "perfbench"))

import workloads  # noqa: E402

DATA = os.path.join(HERE, "..", "src", "arabverb", "data")

SAMPLE_LEXICON = os.path.join(DATA, "sample_lexicon.tsv")
GOLD_LEXICON = os.path.join(DATA, "gold_lexicon.tsv")
GOLD_FORMS = os.path.join(HERE, "data", "gold_forms.tsv")


@pytest.fixture(scope="session")
def ruleset():
    return rules.default_rules()


@pytest.fixture(scope="session")
def sample_entries():
    return lexicon.load_lexicon(SAMPLE_LEXICON).entries


@pytest.fixture(scope="session")
def gold_entries():
    return lexicon.load_lexicon(GOLD_LEXICON).entries


@pytest.fixture(scope="session")
def sample_forms(sample_entries):
    forms, stats = pipeline.generate_all(sample_entries)
    assert not stats.failures
    return forms


@pytest.fixture(scope="session")
def gold_forms(gold_entries):
    forms, stats = pipeline.generate_all(gold_entries)
    assert not stats.failures
    return forms


@pytest.fixture(scope="session")
def mixed_class_lexicon(tmp_path_factory):
    """The path and forms of the mixed-class lemma lexicon of the benchmark
    (perfbench, input seed 1)."""
    path = tmp_path_factory.mktemp("mixed-class") / "lemmas.tsv"
    path.write_text(workloads.lemma_tsv(workloads.mixed_class(1)), encoding="utf-8")
    forms, stats = pipeline.generate_all(lexicon.load_lexicon(path.as_posix()).entries)
    assert not stats.failures
    return path.as_posix(), forms
