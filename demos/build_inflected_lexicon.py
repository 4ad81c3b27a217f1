"""Compile the bundled lemma lexicons into a full inflected lexicon.

Writes a TSV of every generated form plus a machine-readable stats
report (lemma counts, per-pattern histogram, per-rule firing counts).
An entry of the gold lexicon whose (lemma, code) the sample already
holds is skipped, so each paradigm is generated and written once.
"""

import tempfile
from importlib import resources

from arabverb.lexicon import load_lexicon
from arabverb.pipeline import generate_all, write_lexicon, write_stats

entries, taken = [], set()
for name in ("sample_lexicon.tsv", "gold_lexicon.tsv"):
    path = resources.files("arabverb.data").joinpath(name)
    for entry in load_lexicon(str(path)).entries:
        if (entry.lemma, entry.code) not in taken:
            taken.add((entry.lemma, entry.code))
            entries.append(entry)

forms, stats = generate_all(entries)
out_dir = tempfile.mkdtemp(prefix="arabverb-")
write_lexicon(forms, out_dir + "/inflected.tsv")
write_stats(stats, out_dir + "/stats.tsv")

print("lemmas:          %d" % stats.lemma_count)
print("inflected forms: %d  (109 per lemma)" % stats.form_count)
print("busiest rules:")
for rule_id, count in sorted(stats.rule_hits.items(), key=lambda kv: -kv[1])[:8]:
    print("  %-4s fired %5d times" % (rule_id, count))
print("wrote %s/inflected.tsv and stats.tsv" % out_dir)
