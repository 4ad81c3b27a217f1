"""Machine-speed calibration for untraced runs.

The benchmark's host is shared.  The same fixed work runs up to 1.8 times
slower for stretches of seconds to minutes.  ``calibrate`` is a fixed
piece of pure-Python work with the engine's instruction mix: regex
searches on short strings, string slicing, set and dict operations, tuple
building and a sort.

run.py times it right before and right after every measured sample, on
the same CPU.  Each metric's median is then scaled by REFERENCE_S divided
by the median of the calibrations around that metric's samples.  A value
thus reads as it would on a machine where ``calibrate`` takes REFERENCE_S.

Over 150 s on a contended host, the engine's own timings were grouped into
5-second windows.  The window medians spread by 0.23 (quartiles over
median), and their ratios to the adjacent calibrations spread by 0.04.
"""

import random
import re
import time

REFERENCE_S = 0.002
REPEATS = 3

_WORDS = ["".join(random.Random(i).choice("abcdefghiklmnoprstuwy") for _ in range(8))
          for i in range(200)]
_PATTERNS = [re.compile(p) for p in (
    r"(?:a)([bcd])(?=e)", r"([klm])\1", r"(?:^|x)(u[wy])", r"([aeiou])(?=[st]\Z)")]


def calibrate():
    counts, rows = {}, []
    for n in range(6):
        for word in _WORDS:
            for rx in _PATTERNS:
                m = rx.search(word)
                if m:
                    word = word[:m.start(1)] + m.group(1).upper() + word[m.end(1):]
            counts[word] = counts.get(word, 0) + len(set(word) & {"a", "e", "k"})
            rows.append((word, len(word), n))
    rows.sort()
    return len(counts)


def timings(n=REPEATS):
    out = []
    for _ in range(n):
        start = time.perf_counter()
        calibrate()
        out.append(time.perf_counter() - start)
    return out


